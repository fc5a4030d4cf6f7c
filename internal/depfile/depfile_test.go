package depfile

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"ocd"
	"ocd/internal/attr"
	"ocd/internal/datagen"
	"ocd/internal/relation"
)

func testRel() *relation.Relation {
	return relation.FromInts("t", []string{"income", "savings", "bracket", "tax"},
		[][]int{{1, 2, 3, 4}})
}

func TestParseBasics(t *testing.T) {
	src := `
# paper dependencies
income -> bracket
income, savings -> savings
income ~ savings   # compatibility
`
	deps, err := Parse(strings.NewReader(src), testRel())
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 3 {
		t.Fatalf("parsed %d deps", len(deps))
	}
	if !deps[0].Lhs.Equal(attr.NewList(0)) || !deps[0].Rhs.Equal(attr.NewList(2)) || deps[0].OCD {
		t.Errorf("dep 0 = %+v", deps[0])
	}
	if !deps[1].Lhs.Equal(attr.NewList(0, 1)) || !deps[1].Rhs.Equal(attr.NewList(1)) {
		t.Errorf("dep 1 = %+v", deps[1])
	}
	if !deps[2].OCD {
		t.Error("dep 2 should be an OCD")
	}
	if deps[0].Line != 3 {
		t.Errorf("line number = %d, want 3", deps[0].Line)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"income bracket", // no separator
		"income -> nope", // unknown column
		"-> bracket",     // empty lhs
		"income -> ",     // empty rhs
		",, -> bracket",  // only separators on lhs
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src), testRel()); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseArrowBeatsTilde(t *testing.T) {
	// A line containing both uses "->"; "~" alone selects OCD.
	deps, err := Parse(strings.NewReader("income -> tax\n"), testRel())
	if err != nil {
		t.Fatal(err)
	}
	if deps[0].OCD {
		t.Error("-> line parsed as OCD")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	r := testRel()
	src := "income, savings -> bracket\nincome ~ tax\n"
	deps, err := Parse(strings.NewReader(src), r)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range deps {
		b.WriteString(Format(d, r.NameOf))
		b.WriteByte('\n')
	}
	again, err := Parse(strings.NewReader(b.String()), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(deps) {
		t.Fatal("round trip changed count")
	}
	for i := range deps {
		if !again[i].Lhs.Equal(deps[i].Lhs) || !again[i].Rhs.Equal(deps[i].Rhs) || again[i].OCD != deps[i].OCD {
			t.Errorf("round trip changed dep %d", i)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	deps, err := Parse(strings.NewReader("\n# only comments\n\n"), testRel())
	if err != nil || len(deps) != 0 {
		t.Errorf("deps = %v, err = %v", deps, err)
	}
}

// TestWriteParseRoundTrip writes the TAXINFO result and parses it back
// against its relation: every OCD and OD, and both ODs between each
// equivalence group's members, come back in order.
func TestWriteParseRoundTrip(t *testing.T) {
	r := datagen.TaxTable()
	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	tbl, err := ocd.LoadCSV(&csv, r.Name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Discover(ocd.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, d := range res.OCDs {
		want = append(want, d.String())
	}
	for _, d := range res.ODs {
		want = append(want, d.String())
	}
	for _, g := range res.EquivalentGroups {
		for _, other := range g[1:] {
			want = append(want, ocd.OD{Left: g[:1], Right: []string{other}}.String(),
				ocd.OD{Left: []string{other}, Right: g[:1]}.String())
		}
	}
	if len(res.OCDs) == 0 || len(res.ODs) == 0 || len(res.EquivalentGroups) == 0 {
		t.Fatalf("TAXINFO found %d OCDs, %d ODs and %d equivalence groups, want some of each",
			len(res.OCDs), len(res.ODs), len(res.EquivalentGroups))
	}

	var file bytes.Buffer
	if err := Write(&file, res); err != nil {
		t.Fatal(err)
	}
	deps, err := Parse(&file, r)
	if err != nil {
		t.Fatal(err)
	}
	names := func(l attr.List) []string {
		out := make([]string, len(l))
		for i, a := range l {
			out[i] = r.ColName(a)
		}
		return out
	}
	var got []string
	for _, d := range deps {
		if d.OCD {
			got = append(got, ocd.OCD{Left: names(d.Lhs), Right: names(d.Rhs)}.String())
		} else {
			got = append(got, ocd.OD{Left: names(d.Lhs), Right: names(d.Rhs)}.String())
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("parsed back\n%s\nwant\n%s\nfrom\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"), file.String())
	}
}

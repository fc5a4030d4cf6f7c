//go:build faultinject

package differential

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ocd"
	"ocd/internal/datagen"
	"ocd/internal/faultinject"
	"ocd/internal/jobs"
	"ocd/internal/relation"
)

// input is one relation, written once as CSV so that every mode, in this
// process or not, reads the same bytes.
type input struct {
	name string
	gen  func() *relation.Relation
	csv  string     // path, set by TestMain
	tbl  *ocd.Table // the CSV loaded once, set by TestMain
}

var (
	taxinfo = &input{name: "TAXINFO", gen: datagen.TaxTable}
	// flight50 is deep enough for a kill as its third level starts.
	flight50 = &input{name: "FLIGHT_10Kx50", gen: func() *relation.Relation { return datagen.Flight(10_000, 50) }}
	// inputs are the relations the matrix runs on. Append to extend it.
	inputs = []*input{taxinfo,
		{name: "HORSE", gen: datagen.Horse},
		{name: "HEPATITIS", gen: datagen.Hepatitis},
		{name: "NCVOTER_1K", gen: datagen.NCVoter1K},
		{name: "DBTESMA_1K", gen: datagen.DBTesma1K},
		flight50}
)

// bin holds the faultinject builds of the two commands.
var bin struct{ ocddiscover, ocdserve string }

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "differential-")
	if err == nil {
		err = setup(dir)
	}
	code := 1
	if err == nil {
		code = m.Run()
	} else {
		fmt.Fprintln(os.Stderr, "differential:", err)
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// setup builds the faultinject commands into dir and writes the inputs.
func setup(dir string) error {
	build := exec.Command("go", "build", "-tags=faultinject", "-o", dir+string(filepath.Separator),
		"ocd/cmd/ocddiscover", "ocd/cmd/ocdserve")
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("building the faultinject commands: %v\n%s", err, out)
	}
	bin.ocddiscover, bin.ocdserve = filepath.Join(dir, "ocddiscover"), filepath.Join(dir, "ocdserve")
	for _, in := range inputs {
		var b bytes.Buffer
		in.csv = filepath.Join(dir, in.name+".csv")
		err := in.gen().WriteCSV(&b)
		if err == nil {
			err = os.WriteFile(in.csv, b.Bytes(), 0o644)
		}
		if err == nil {
			in.tbl, err = ocd.LoadCSVFile(in.csv)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// canon is a run's result document as indented JSON, without the fields
// that vary between executions: two runs agree exactly when their canons
// are equal.
type canon string

// canonOf zeroes the fields ocd.ResultDoc marks volatile, and the name,
// which a job takes from its submission and ocddiscover from the file, then
// marshals d.
func canonOf(t *testing.T, d ocd.ResultDoc) canon {
	t.Helper()
	d.Name, d.ElapsedMS, d.PriorElapsedMS, d.Resumed, d.Checkpoints, d.CheckpointError = "", 0, 0, false, 0, ""
	b, err := json.MarshalIndent(d, "", " ")
	must(t, err)
	return canon(b)
}

// mustAgree fails t unless got equals want, quoting the first line that
// differs.
func mustAgree(t *testing.T, got, want canon) {
	t.Helper()
	if got == want {
		return
	}
	// The sentinel line makes the two differ before either runs out.
	g, w := strings.Split(string(got)+"\n<end>", "\n"), strings.Split(string(want)+"\n<end>", "\n")
	i := 0
	for g[i] == w[i] {
		i++
	}
	t.Errorf("result differs from the reference at line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	must(t, err)
	must(t, json.Unmarshal(data, v))
}

// artifacts returns the directory for t's logs and scrapes: under
// CHAOS_ARTIFACT_DIR when it is set, so that they outlive the run, else a
// temporary one. CI artifact uploads refuse ':' in paths, which fault
// specs in subtest names carry.
func artifacts(t *testing.T) string {
	t.Helper()
	root := os.Getenv("CHAOS_ARTIFACT_DIR")
	if root == "" {
		return t.TempDir()
	}
	dir := filepath.Join(root, filepath.FromSlash(strings.ReplaceAll(t.Name(), ":", "_")))
	must(t, os.MkdirAll(dir, 0o755))
	return dir
}

// step runs f as the named subtest and stops t if it fails: later steps
// build on what earlier ones left.
func step(t *testing.T, name string, f func(t *testing.T)) {
	t.Helper()
	if !t.Run(name, f) {
		t.FailNow()
	}
}

// proc is the output of one ocddiscover process.
type proc struct {
	stdout []byte
	stderr string
}

// ocddiscover runs the faultinject ocddiscover with OCD_FAULT=fault and
// requires exit status want.
func ocddiscover(t *testing.T, want int, fault string, args ...string) proc {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin.ocddiscover, args...)
	cmd.Env = append(os.Environ(), faultinject.EnvVar+"="+fault)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); cmd.ProcessState == nil {
		t.Fatal(err)
	}
	if code := cmd.ProcessState.ExitCode(); code != want {
		t.Fatalf("ocddiscover %v exited %d, want %d:\n%s", args, code, want, &stderr)
	}
	return proc{stdout.Bytes(), stderr.String()}
}

// canon decodes -json output.
func (p proc) canon(t *testing.T) canon {
	t.Helper()
	var d ocd.ResultDoc
	must(t, json.Unmarshal(p.stdout, &d))
	return canonOf(t, d)
}

// counters reads the counters of a metrics dump.
func counters(t *testing.T, path string) map[string]int64 {
	t.Helper()
	var snap struct{ Counters map[string]int64 }
	readJSON(t, path, &snap)
	return snap.Counters
}

// ocdserve is one faultinject ocdserve process.
type ocdserve struct {
	cmd       *exec.Cmd
	base, log string        // base is http://host:port; log holds stdout and stderr
	done      chan struct{} // closed once the process has exited
}

// startServer starts ocdserve on dir with OCD_FAULT=fault and waits until
// it serves. The process is killed, if still alive, when t ends.
func startServer(t *testing.T, log, dir, fault string, flags ...string) *ocdserve {
	t.Helper()
	addr := filepath.Join(dir, "addr")
	must(t, os.MkdirAll(dir, 0o755))
	os.Remove(addr) // a restart on dir must not read the address of the process before it
	out, err := os.Create(log)
	must(t, err)
	defer out.Close()
	s := &ocdserve{log: log, done: make(chan struct{}), cmd: exec.Command(bin.ocdserve, append([]string{"-dir", dir,
		"-addr", "127.0.0.1:0", "-addr-file", addr, "-max-active", "1", "-max-attempts", "2",
		"-backoff", "50ms", "-backoff-cap", "1s"}, flags...)...)}
	s.cmd.Env = append(os.Environ(), faultinject.EnvVar+"="+fault)
	s.cmd.Stdout, s.cmd.Stderr = out, out
	must(t, s.cmd.Start())
	go func() {
		s.cmd.Wait() // the status is read from ProcessState
		close(s.done)
	}()
	t.Cleanup(func() {
		s.cmd.Process.Kill() // it may have exited already
		<-s.done
	})
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if b, _ := os.ReadFile(addr); bytes.HasSuffix(b, []byte("\n")) {
			s.base = "http://" + strings.TrimSpace(string(b))
			return s
		}
		select {
		case <-s.done:
			t.Fatalf("server died before serving; see %s", log)
		default:
		}
	}
	t.Fatalf("server never wrote its address file; see %s", log)
	return nil
}

// waitExit waits for the process to end and requires exit status want.
func (s *ocdserve) waitExit(t *testing.T, want int) {
	t.Helper()
	select {
	case <-s.done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("server still alive; see %s", s.log)
	}
	if code := s.cmd.ProcessState.ExitCode(); code != want {
		t.Fatalf("server exited %d, want %d; see %s", code, want, s.log)
	}
}

// stop sends SIGTERM and requires a clean drain: exit status 0.
func (s *ocdserve) stop(t *testing.T) {
	t.Helper()
	must(t, s.cmd.Process.Signal(syscall.SIGTERM))
	s.waitExit(t, 0)
}

var client = &http.Client{Timeout: time.Minute}

// call sends a request with the given header name and value pairs and
// returns the response and its body.
func (s *ocdserve) call(t *testing.T, method, path string, body io.Reader, header ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, s.base+path, body)
	must(t, err)
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := client.Do(req)
	must(t, err)
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	must(t, err)
	return resp, data
}

// getJSON fetches path, requires 200 OK and decodes the body into v.
func (s *ocdserve) getJSON(t *testing.T, path string, v any) []byte {
	t.Helper()
	resp, body := s.call(t, http.MethodGet, path, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
	}
	must(t, json.Unmarshal(body, v))
	return body
}

// submit posts in's CSV as job name, with the submission options in query
// ("max-level=3"), and returns the job id.
func (s *ocdserve) submit(t *testing.T, name string, in *input, workers int, query ...string) string {
	t.Helper()
	f, err := os.Open(in.csv)
	must(t, err)
	defer f.Close()
	var doc jobs.StatusDoc
	path := fmt.Sprintf("/jobs?name=%s&workers=%d", name, workers)
	for _, q := range query {
		path += "&" + q
	}
	resp, body := s.call(t, http.MethodPost, path, f)
	if json.Unmarshal(body, &doc); resp.StatusCode != http.StatusAccepted || doc.ID == "" {
		t.Fatalf("submit %s: %s: %s", name, resp.Status, body)
	}
	return doc.ID
}

// waitJob polls the job until it reaches state want; another terminal
// state fails t.
func (s *ocdserve) waitJob(t *testing.T, id string, want jobs.State) jobs.StatusDoc {
	t.Helper()
	for end := time.Now().Add(2 * time.Minute); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		var doc jobs.StatusDoc
		s.getJSON(t, "/jobs/"+id, &doc)
		switch doc.State {
		case want:
			return doc
		case jobs.StateCompleted, jobs.StateFailed, jobs.StateCancelled:
			t.Fatalf("job %s settled as %s, want %s: %+v", id, doc.State, want, doc)
		}
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobs.StatusDoc{}
}

// result fetches a job's result document, requires it to carry the
// submitted name, and returns its canon and the whole document.
func (s *ocdserve) result(t *testing.T, id, name string) (canon, jobs.ResultDoc) {
	t.Helper()
	var doc jobs.ResultDoc
	if s.getJSON(t, "/jobs/"+id+"/result", &doc); doc.Name != name {
		t.Errorf("result of job %s is named %q, want %q", id, doc.Name, name)
	}
	return canonOf(t, doc.ResultDoc), doc
}

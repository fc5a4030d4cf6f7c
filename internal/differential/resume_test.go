//go:build faultinject

package differential

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ocd/internal/faultinject"
)

// TestOcddiscoverCheckpoints kills ocddiscover at engine and snapshot-write
// points and requires the durable-checkpoint contract: a killed run
// resumes to the uninterrupted output and metrics, no snapshot is ever
// torn, a foreign snapshot is refused, and a truncated run says how to
// resume it.
func TestOcddiscoverCheckpoints(t *testing.T) {
	t.Parallel()
	tax, dir, exit := taxinfo.csv, t.TempDir(), faultinject.ExitCode
	at := func(name string) string { return filepath.Join(dir, name) }
	fresh := ocddiscover(t, 0, "", "-input", tax, "-json", "-metrics-out", at("fresh.json")).canon(t, at("fresh.json"))
	// resumeGivesFresh requires a non-empty snapshot that resumes to fresh.
	resumeGivesFresh := func(t *testing.T, ckpt string) {
		if fi, err := os.Stat(ckpt); err != nil || fi.Size() == 0 {
			t.Fatalf("the killed run left no snapshot (%v)", err)
		}
		p := ocddiscover(t, 0, "", "-input", tax, "-resume", ckpt, "-json", "-metrics-out", ckpt+".json")
		mustAgree(t, p.canon(t, ckpt+".json"), fresh)
	}

	step(t, "kill mid-level 3 then resume gives the uninterrupted output", func(t *testing.T) {
		// -metrics-out gives the killed run a registry for its snapshot.
		ocddiscover(t, exit, "core.level.start:exit:3", "-input", tax, "-checkpoint", at("run.ckpt"), "-json",
			"-metrics-out", at("never.json"))
		resumeGivesFresh(t, at("run.ckpt"))
	})
	t.Run("crash and resume counters equal the uninterrupted run's", func(t *testing.T) {
		a, b := counters(t, at("fresh.json")), counters(t, at("run.ckpt.json"))
		for _, k := range []string{"checks", "candidates", "levels", "ocds", "ods", "prunes"} {
			if k = "discover." + k; a[k] != b[k] {
				t.Errorf("%s: uninterrupted %d, crash and resume %d", k, a[k], b[k])
			}
		}
	})
	t.Run("kill during the first snapshot rename leaves no file", func(t *testing.T) {
		ocddiscover(t, exit, "checkpoint.write.rename:exit:1", "-input", tax, "-checkpoint", at("torn.ckpt"), "-json")
		if _, err := os.Stat(at("torn.ckpt")); !os.IsNotExist(err) {
			t.Fatalf("a snapshot exists after a kill during its first write (%v)", err)
		}
	})
	t.Run("kill during a later rename keeps the previous snapshot", func(t *testing.T) {
		ocddiscover(t, exit, "checkpoint.write.rename:exit:2", "-input", tax, "-checkpoint", at("mid.ckpt"), "-json")
		resumeGivesFresh(t, at("mid.ckpt"))
	})
	t.Run("resume against modified input is refused", func(t *testing.T) {
		data, err := os.ReadFile(tax)
		must(t, err)
		cut := strings.LastIndexByte(strings.TrimSuffix(string(data), "\n"), '\n') + 1 // drop the last row
		must(t, os.WriteFile(at("modified.csv"), data[:cut], 0o644))
		if p := ocddiscover(t, 1, "", "-input", at("modified.csv"), "-resume", at("run.ckpt")); !strings.Contains(p.stderr, "checkpoint") {
			t.Errorf("the refusal does not mention the checkpoint: %s", p.stderr)
		}
	})
	t.Run("truncated run prints the snapshot path and resume command", func(t *testing.T) {
		ckpt := at("trunc.ckpt")
		p := ocddiscover(t, 3, "", "-input", tax, "-max-level", "2", "-checkpoint", ckpt)
		text, q := string(p.stdout)+p.stderr, regexp.QuoteMeta(ckpt)
		for _, re := range []string{`(?m)^checkpoint: ` + q, `(?m)^resume with: .*-resume=` + q} {
			if !regexp.MustCompile(re).MatchString(text) {
				t.Errorf("text output lacks %s:\n%s", re, text)
			}
		}
		var doc struct {
			ResumeCommand  *string `json:"resume_command"`
			CheckpointPath string  `json:"checkpoint_path"`
		}
		p = ocddiscover(t, 0, "", "-input", tax, "-max-level", "2", "-checkpoint", ckpt, "-json", "-partial-ok")
		if err := json.Unmarshal(p.stdout, &doc); err != nil || doc.ResumeCommand == nil || doc.CheckpointPath != ckpt {
			t.Errorf("JSON output lacks resume_command or checkpoint_path %s (%v):\n%s", ckpt, err, p.stdout)
		}
	})
}

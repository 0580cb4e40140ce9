package harness

import (
	"bytes"
	"strings"
	"testing"

	"graphword2vec/internal/gluon"
)

// TestCommVolumeEndToEnd runs the comm-volume table at tiny scale and
// asserts its headline claims: the vector-frame encoding always saves
// bytes against the computed raw baseline, and the sparse-round regime
// saves ≥ 30% under the RepModel schemes.
func TestCommVolumeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	var buf bytes.Buffer
	opts := tinyOpts()
	opts.Out = &buf
	rows, err := CommVolume(opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(CommVolumeWorkloads) * len(ScalingModes); len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	byCell := map[string]CommVolumeRow{}
	for _, r := range rows {
		byCell[r.Workload+"/"+r.Mode+"/"+r.Encoding] = r
	}
	for _, wl := range CommVolumeWorkloads {
		for _, mode := range ScalingModes {
			raw := byCell[wl+"/"+mode.String()+"/raw"]
			packed := byCell[wl+"/"+mode.String()+"/packed"]
			if raw.TotalBytes == 0 || packed.TotalBytes == 0 {
				t.Fatalf("%s/%v: missing cells", wl, mode)
			}
			if raw.VsRaw != 1 {
				t.Errorf("%s/%v: raw row vs raw = %v, want 1", wl, mode, raw.VsRaw)
			}
			if packed.TotalBytes >= raw.TotalBytes {
				t.Errorf("%s/%v: packed %d not below raw %d", wl, mode, packed.TotalBytes, raw.TotalBytes)
			}
			// The acceptance bar: in the sparse-round regime the encoding
			// cuts ≥ 30% under the RepModel schemes. (Pull broadcasts
			// serve stale mirrors and cannot suppress halves, so Pull's
			// saving is structurally smaller.)
			if strings.HasSuffix(wl, "-sparse") && mode != gluon.PullModel && packed.VsRaw > 0.7 {
				t.Errorf("%s/%v: packed saves only %.0f%%, want ≥ 30%%", wl, mode, 100*(1-packed.VsRaw))
			}
		}
	}
	out := buf.String()
	for _, wantStr := range []string{"Vector-frame volume", "text-sparse", "graph-sparse", "packed", "vs raw"} {
		if !strings.Contains(out, wantStr) {
			t.Errorf("output missing %q", wantStr)
		}
	}
}

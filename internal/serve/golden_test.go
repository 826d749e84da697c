package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"multitherm/internal/core"
	"multitherm/internal/experiments"
)

// Golden digests pin the canonical output bytes of the simulator:
// per-cell response bodies for every taxonomy policy on two workload
// mixes, one dense and one sparse generated grid cell, one NDJSON trace
// stream, and the rendered Table 1. Any numerics change shows up here
// as a digest change, which must be reviewed and recorded rather than
// slipping through as "within tolerance".
//
// One table holds for every build on amd64: the AVX-512 kernels and
// the math.FMA generic twin (the noasm build, and hosts without
// AVX-512) run the same correctly rounded operation sequence, so both
// produce these bytes. Other architectures are skipped because the Go
// compiler fuses x*y+z into FMA in ordinary code on arm64 (and others),
// so the non-kernel arithmetic rounds differently there.
//
// A deliberate numerics change follows one procedure:
//  1. replace the table with the one the failing test prints;
//  2. re-run EXPERIMENTS.md Tables 5 and 8 (go run ./cmd/sweep -only
//     table5, -only table8) and check their orderings still hold;
//  3. record the changed digests and the table deltas in CHANGES.md.
//
// Bump the mtserve cellKey scheme only if a result cache outlives the
// process; today's cache is in-memory, so old bytes cannot be replayed.

const goldenSimTime = 0.01

var goldenMixes = []string{"workload1", "workload7"}

var golden = map[string]string{
	"cell/workload1/dist-dvfs":             "4be7d0b3e98994d3bd95e02651f03c2b7f8cd4216ac947fcbe1c84f10f75b9d5",
	"cell/workload1/dist-dvfs+counter":     "e7939c6564a8b54e8dbd666904c71c9dcc24caf433913b1241cb67bd7c4bc3ff",
	"cell/workload1/dist-dvfs+sensor":      "d110db62380b98787686d6130ea0591a48e13be3ed96e95790fa24a007e53759",
	"cell/workload1/dist-stopgo":           "8fa0bfe8991540b8ebfe1d2973c7c72ab4c06303fabf696f978f2a6d18a2f53e",
	"cell/workload1/dist-stopgo+counter":   "722be10410b4db74cfeabd8e61c9e412354a7ad46be53e3b54efd23d45ba1e90",
	"cell/workload1/dist-stopgo+sensor":    "38e99e68c1f7191499bab0c6a7d19c63f185b050382b62e8fcff33e5a2a5d3a7",
	"cell/workload1/global-dvfs":           "2e83c2e96edd1f3a51ccb251bcb953ff0c037ce18dafce0d8286dfdced9e7b5f",
	"cell/workload1/global-dvfs+counter":   "9eae38ad78bc6b0fff68025fcf41821b834ee7a639bcc3442ab0cf2b9ed767d7",
	"cell/workload1/global-dvfs+sensor":    "cfdcc13f65438cc8e14be658dbb7f5ae909293e0c02aec863ccd692a1b3eb49b",
	"cell/workload1/global-stopgo":         "c31ff318fe10d67753cbb3e1c3ac40f8c684fd497b3a77abb0f6033f8227761c",
	"cell/workload1/global-stopgo+counter": "8329fcc5137a4e473ed85faebcbf4684aad44ed1cabd3114614f07036d784539",
	"cell/workload1/global-stopgo+sensor":  "b70d18aa9c01ceb80b535bf4431c83bc43b3efaf01f5bebe585d1f1586b3a777",
	"cell/workload7/dist-dvfs":             "7e9efc6691d202d0c13bf72b7e9146e897f29ee225bbcbd91b4ecaca6b301f21",
	"cell/workload7/dist-dvfs+counter":     "88fd4f10122ccc5ec9621f0998f5033ddb0efd28f078f2bd74979dbdd335c695",
	"cell/workload7/dist-dvfs+sensor":      "0f4fa05bcc24903bbc296d4cd08e90fcd471c8fc3ecd2b23aa645a79503c7e69",
	"cell/workload7/dist-stopgo":           "37b46f86825f66e8c256345b90e987ca43dbdc49709f40cbeeb44513537177ad",
	"cell/workload7/dist-stopgo+counter":   "9c24e8c9f9d2e200ca3b727aec53624be02135eaea673a9416c1f5c7283c450f",
	"cell/workload7/dist-stopgo+sensor":    "665804a089a53d30b99c41590cc64c43da6168c46058124037be051fa7183ff8",
	"cell/workload7/global-dvfs":           "0e74ba8e744993b605d02b4022b5cc72c28eabed6bb22c80472fa9e295535e4b",
	"cell/workload7/global-dvfs+counter":   "e4ccdac6871eeb73d438d1fdc8ebedab17e946a43923796e51499f114918c727",
	"cell/workload7/global-dvfs+sensor":    "9744ae0a8daa7fe1747742dc3db7e351dcae61f675a8ccc04e5077e86d4c99a1",
	"cell/workload7/global-stopgo":         "cd54c2bb33933ad2080636aa3813c8cc626cc6743918390d8956868b7acc4f58",
	"cell/workload7/global-stopgo+counter": "591ac9884fef2a6848829843d5527503d52dac6c895a687c56b43554716e53e2",
	"cell/workload7/global-stopgo+sensor":  "833b7b1b80d7ba5aa4abb02567f133c1204971878b3f054ad210ac27403a0622",
	"grid/3x4/dist-dvfs":                   "dd81e4ce39f62672699977ce5a3295f7c144213c8f17747bbe377c5b70f88583",
	"grid/8x8/dist-dvfs":                   "cc23d7b3ec047a6cdc37901a9f96923514bd13481b383dadfe9570853a03275f",
	"table1/quick":                         "725b516f7355cdf205fba641bc7e26b8a5ea1f56f0ba777b2ffb5b3acbe6c44f",
	"trace/workload7/dist-dvfs+sensor":     "c53261f356624e2588287fb02383fb744a81e3d23e6337c1ea5dcf21a2fcdf39",
}

// goldenCellBytes runs one resolved cell directly and returns its
// canonical response body.
func goldenCellBytes(t *testing.T, s *Server, spec CellSpec) []byte {
	t.Helper()
	c, err := s.resolveCell(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.newRunner()
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeResult(c, m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	s, ts := newTestServer(t, Config{})
	got := map[string]string{}
	put := func(name string, b []byte) {
		sum := sha256.Sum256(b)
		got[name] = hex.EncodeToString(sum[:])
	}
	for _, mix := range goldenMixes {
		for _, policy := range core.PolicyNames() {
			put("cell/"+mix+"/"+policy, goldenCellBytes(t, s,
				CellSpec{Workload: mix, Policy: policy, SimTimeS: goldenSimTime}))
		}
	}
	put("grid/3x4/dist-dvfs", goldenCellBytes(t, s,
		CellSpec{Floorplan: "3x4", Policy: "dist-dvfs", SimTimeS: goldenSimTime}))
	put("grid/8x8/dist-dvfs", goldenCellBytes(t, s,
		CellSpec{Floorplan: "8x8", Policy: "dist-dvfs", SimTimeS: goldenSimTime}))
	put("trace/workload7/dist-dvfs+sensor", mustPost(t, ts.URL+"/v1/sim/trace", fmt.Sprintf(
		`{"workload":"workload7","policy":"dist-dvfs+sensor","simtime_s":%g,"every":8}`, goldenSimTime)))
	t1, err := experiments.RunTable1(experiments.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	put("table1/quick", []byte(t1.Render()))

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var bad []string
	for _, name := range names {
		if golden[name] != got[name] {
			bad = append(bad, name)
		}
	}
	for name := range golden {
		if _, ok := got[name]; !ok {
			bad = append(bad, name+" (no longer produced)")
		}
	}
	if len(bad) == 0 {
		return
	}
	var tbl strings.Builder
	for _, name := range names {
		fmt.Fprintf(&tbl, "\t%q: %q,\n", name, got[name])
	}
	t.Fatalf("%d golden digests differ: %s\nnew table:\n%s",
		len(bad), strings.Join(bad, ", "), tbl.String())
}

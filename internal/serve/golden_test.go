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
	"multitherm/internal/floorplan"
	"multitherm/internal/sim"
	"multitherm/internal/thermal"
)

// Golden digests pin the canonical output bytes of the simulator:
// per-cell response bodies for every taxonomy policy on two workload
// mixes, one dense and one sparse generated grid cell, one NDJSON trace
// stream, and the rendered Table 1. Any numerics change shows up here
// as a digest change, which must be reviewed and recorded rather than
// slipping through as "within tolerance".
//
// The tables are keyed by kernel path. The vectorized and generic
// packed kernels round differently (fused vs. separate multiply-add),
// so each path has its own expected bytes; which one applies is what
// the CMP4 discretization reports on this machine. Other
// architectures are skipped: the Go compiler fuses multiply-adds on
// arm64, so the generic path's bytes differ there too.
//
// When an entry changes on purpose, replace the table with the one the
// failing test prints.

const goldenSimTime = 0.01

var goldenMixes = []string{"workload1", "workload7"}

var goldenSIMD = map[string]string{
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

var goldenGeneric = map[string]string{
	"cell/workload1/dist-dvfs":             "eca3436f9ddb2585dde9228c919b99bb3c7bc0e5d81c9c9387d3aa1148ac02e1",
	"cell/workload1/dist-dvfs+counter":     "2aaee6172f637084f89505c4b301572bd4f412a67fef8e8a4676f6e03a3f845e",
	"cell/workload1/dist-dvfs+sensor":      "142558457bd8769066a9592c882d6a1452cbfe6abbd1613d43ae0989be24b986",
	"cell/workload1/dist-stopgo":           "ce258f154c1ab07130a70c45753691443098913863aa5be5e4f04fd5db204531",
	"cell/workload1/dist-stopgo+counter":   "6cfa94ab3a519111ed6efee15bf75afbe8f32545d8e7eea2c352c674d774dc71",
	"cell/workload1/dist-stopgo+sensor":    "38e99e68c1f7191499bab0c6a7d19c63f185b050382b62e8fcff33e5a2a5d3a7",
	"cell/workload1/global-dvfs":           "90670c0612aa99daa42e235ceb3942522ea3762197b1474b1edb8ef86ab14d39",
	"cell/workload1/global-dvfs+counter":   "1752291cab3f54e7973dfe425d33c67c0a14d2a2bac84d67778758e91403ec78",
	"cell/workload1/global-dvfs+sensor":    "48525335d3ac3bcc2e99de2ee370cbdfb5b696ae3f6fabf941d7212cca91aba3",
	"cell/workload1/global-stopgo":         "72754cb1491d8f800f58e0a685d1954ff619d0ef98e22db1e649748c84fe709d",
	"cell/workload1/global-stopgo+counter": "fe3b0d692f091694cd4fc51fe0373f3fb5082aa2357b11afd4b918273aafec6b",
	"cell/workload1/global-stopgo+sensor":  "be00316ad981f14f55a0be135c182de7dfcf81070d896d61a03a7fec72f9e319",
	"cell/workload7/dist-dvfs":             "7a4f4594cec7d86715e81e6647d2f3650fd71646190324aaa2d1aa561459fba6",
	"cell/workload7/dist-dvfs+counter":     "7fa2d41cc95145d27eca4f58d88faedfb5e7c5915e2bd985a1ad557b1ea2071a",
	"cell/workload7/dist-dvfs+sensor":      "a691078a7e2a2e85019acccd8fad6babce53570b458d6c7c7d60be6f6bb94ad9",
	"cell/workload7/dist-stopgo":           "a2da23082d4b9a037008d634dd510ba3396b43ba97280bcc0ada8707126b14d2",
	"cell/workload7/dist-stopgo+counter":   "1e591a1ee628c58bef233bd6829a2a26616e387694bac54f5dd2379027a6ce93",
	"cell/workload7/dist-stopgo+sensor":    "665804a089a53d30b99c41590cc64c43da6168c46058124037be051fa7183ff8",
	"cell/workload7/global-dvfs":           "f60a14822ce0a64b73a1310d3a8709c0952d03ab7b1784db3ad1490520235b0a",
	"cell/workload7/global-dvfs+counter":   "68282d7fa4aa9ab42cc50f2b484234870b4ef06a16989762c00ac8c37b2c0cbf",
	"cell/workload7/global-dvfs+sensor":    "f0af807df354ab177e05476266bb81b99290e745d066226ff1bcd9a5de996d84",
	"cell/workload7/global-stopgo":         "e948e491fb30625f299ff2a4fdbf66937d7b44048668fc647ea485f7bd48d099",
	"cell/workload7/global-stopgo+counter": "e6d7b050b014b93404bf41739d8beddcab0c6b37ffaa1e9067c515c17bf5e245",
	"cell/workload7/global-stopgo+sensor":  "62d67d98d10dc5a65b9d1aeabe0403b006563eabd959bfd4dd82c3b757476468",
	"grid/3x4/dist-dvfs":                   "c4c279661ee8f092d3bcab269a7e5964abb1f8558242b15fc84c7f8b587cf6fd",
	"grid/8x8/dist-dvfs":                   "cc23d7b3ec047a6cdc37901a9f96923514bd13481b383dadfe9570853a03275f",
	"table1/quick":                         "725b516f7355cdf205fba641bc7e26b8a5ea1f56f0ba777b2ffb5b3acbe6c44f",
	"trace/workload7/dist-dvfs+sensor":     "0ec9fe5f5f890158390ae3a90a855084bace57dd7782bc8f00e97c7e9ac9c3e5",
}

// goldenKernelPath names the packed-kernel path this machine runs.
func goldenKernelPath(t *testing.T) string {
	t.Helper()
	tpl, err := thermal.TemplateFor(floorplan.CMP4(), thermal.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	d, err := tpl.Discretization(sim.DefaultConfig().Policy.SamplePeriod)
	if err != nil {
		t.Fatal(err)
	}
	if d.SIMDAccelerated() {
		return "simd"
	}
	return "generic"
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
	path := goldenKernelPath(t)
	want := goldenSIMD
	if path == "generic" {
		want = goldenGeneric
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
		if want[name] != got[name] {
			bad = append(bad, name)
		}
	}
	for name := range want {
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
	t.Fatalf("%d golden digests differ on the %s kernel path: %s\nnew table:\n%s",
		len(bad), path, strings.Join(bad, ", "), tbl.String())
}

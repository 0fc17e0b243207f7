package workload

// TestGoldenArrivals freezes every arrival generator: the exponential model,
// every Section 1.3 scenario preset and every Section 6 mix preset, each at
// two seeds. Per stream, testdata/golden_arrivals.json holds the SHA-256 of
// the first goldenArrivalCount arrivals, each printed as
// "<time> <class> <size>\n" with hex floats, plus the first three arrivals
// in clear. The file is frozen: a generator change that moves one arrival by
// one ulp, reorders two classes at a tie or shifts an RNG stream fails here.
// It is never rewritten.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/sim"
)

const goldenArrivalCount = 10000

type goldenStream struct {
	Name   string        `json:"name"`
	Seed   uint64        `json:"seed"`
	SHA256 string        `json:"sha256"`
	First  []sim.Arrival `json:"first"`
}

// goldenSource is one frozen generator, keyed by a readable name.
type goldenSource struct {
	name string
	src  func(seed uint64) sim.ArrivalSource
}

// goldenSources lists the frozen streams: the model at two (muI, muE)
// corners, every scenario preset and every mix preset.
func goldenSources() []goldenSource {
	out := []goldenSource{
		{"model k=4 rho=0.7 muI=1.5 muE=1", func(s uint64) sim.ArrivalSource { return ModelForLoad(4, 0.7, 1.5, 1).Source(s) }},
		{"model k=4 rho=0.7 muI=0.25 muE=3.5", func(s uint64) sim.ArrivalSource { return ModelForLoad(4, 0.7, 0.25, 3.5).Source(s) }},
		{"scenario mapreduce k=8 rho=0.7", func(s uint64) sim.ArrivalSource { return MapReduce(8, 0.7, 4).Source(s) }},
		{"scenario mlplatform k=8 rho=0.7", func(s uint64) sim.ArrivalSource { return MLPlatform(8, 0.7).Source(s) }},
		{"scenario hpcmalleable k=8 rho=0.7", func(s uint64) sim.ArrivalSource { return HPCMalleable(8, 0.7).Source(s) }},
	}
	for _, name := range MixNames() {
		mix, err := MixByName(name, 8, 0.7)
		if err != nil {
			panic(err)
		}
		out = append(out, goldenSource{"mix " + name + " k=8 rho=0.7", func(s uint64) sim.ArrivalSource { return mix.Source(s) }})
	}
	return out
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func computeGoldenStream(t *testing.T, name string, seed uint64, src sim.ArrivalSource) goldenStream {
	g := goldenStream{Name: name, Seed: seed}
	h := sha256.New()
	for i := 0; i < goldenArrivalCount; i++ {
		a, ok := src.Next()
		if !ok {
			t.Fatalf("%s seed %d: stream ended after %d arrivals", name, seed, i)
		}
		if i < 3 {
			g.First = append(g.First, a)
		}
		fmt.Fprintf(h, "%s %d %s\n", hexFloat(a.Time), a.Class, hexFloat(a.Size))
	}
	g.SHA256 = hex.EncodeToString(h.Sum(nil))
	return g
}

func TestGoldenArrivals(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_arrivals.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenStream
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	var got []goldenStream
	for _, s := range goldenSources() {
		for _, seed := range []uint64{1, 7} {
			got = append(got, computeGoldenStream(t, s.name, seed, s.src(seed)))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d frozen streams, the generators produce %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.Seed != w.Seed {
			t.Fatalf("stream %d is %q seed %d, frozen as %q seed %d", i, g.Name, g.Seed, w.Name, w.Seed)
		}
		for j := range w.First {
			if g.First[j] != w.First[j] {
				t.Errorf("%s seed %d: arrival %d is %+v, frozen as %+v", w.Name, w.Seed, j, g.First[j], w.First[j])
			}
		}
		if g.SHA256 != w.SHA256 {
			t.Errorf("%s seed %d: first %d arrivals hash to %s, frozen as %s", w.Name, w.Seed, goldenArrivalCount, g.SHA256, w.SHA256)
		}
	}
}

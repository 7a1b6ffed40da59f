package histogram

import (
	"math/rand"
	"testing"
)

// A staged burst publishes exactly what inserting its samples one by one
// would have: bins, total, sum, min and max — across layouts, including
// one too wide for the bin LUT, and across stage reuse.
func TestStageMatchesInsert(t *testing.T) {
	wide := make([]int64, 300)
	for i := range wide {
		wide[i] = int64(i*i - 5000)
	}
	layouts := [][]int64{IOLengthEdges(), SeekDistanceEdges(), OutstandingEdges(), wide}
	rng := rand.New(rand.NewSource(3))
	var st Stage
	for _, edges := range layouts {
		want, got := New("w", "u", edges), New("g", "u", edges)
		for burst := 0; burst < 40; burst++ {
			st.Begin(got)
			for i := rng.Intn(200); i > 0; i-- {
				v := rng.Int63n(2_000_000) - 1_000_000
				want.Insert(v)
				st.Add(v)
			}
			st.Publish()
		}
		ws, gs := want.Snapshot(), got.Snapshot()
		if ws.Total != gs.Total || ws.Sum != gs.Sum || ws.Min != gs.Min || ws.Max != gs.Max {
			t.Fatalf("%d edges: total/sum/min/max %d/%d/%d/%d, want %d/%d/%d/%d", len(edges),
				gs.Total, gs.Sum, gs.Min, gs.Max, ws.Total, ws.Sum, ws.Min, ws.Max)
		}
		for i := range ws.Counts {
			if ws.Counts[i] != gs.Counts[i] {
				t.Fatalf("%d edges, bin %d: %d, want %d", len(edges), i, gs.Counts[i], ws.Counts[i])
			}
		}
	}
}

// AddAt restages a sample into a same-layout histogram without a lookup,
// and an empty stage publishes nothing.
func TestStageAddAtAndEmpty(t *testing.T) {
	class, all := NewLatency("r"), NewLatency("a")
	var sc, sa Stage
	sc.Begin(class)
	sa.Begin(all)
	for _, v := range []int64{0, 7, 7, 400, 1 << 40} {
		sa.AddAt(sc.Add(v), v)
	}
	sc.Publish()
	sa.Publish()
	c, a := class.Snapshot(), all.Snapshot()
	for i := range c.Counts {
		if c.Counts[i] != a.Counts[i] {
			t.Fatalf("bin %d: AddAt %d, Add %d", i, a.Counts[i], c.Counts[i])
		}
	}
	if a.Total != 5 || a.Sum != c.Sum || a.Min != 0 || a.Max != 1<<40 {
		t.Fatalf("AddAt snapshot %+v", a)
	}
	empty := NewLatency("e")
	sa.Begin(empty)
	sa.Publish()
	if s := empty.Snapshot(); s.Total != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty publish changed the histogram: %+v", s)
	}
}

// Publishing costs nothing per sample: a staged burst allocates nothing
// once the stage's buffers exist.
func TestStageAllocFree(t *testing.T) {
	h := NewSeekDistance("s")
	var st Stage
	st.Begin(h)
	st.Publish()
	allocs := testing.AllocsPerRun(100, func() {
		st.Begin(h)
		for v := int64(-600000); v < 600000; v += 997 {
			st.Add(v)
		}
		st.Publish()
	})
	if allocs != 0 {
		t.Fatalf("staged burst allocated %v times", allocs)
	}
}

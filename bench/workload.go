package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// rect is a query hyper-rectangle in the gateway's JSON shape.
type rect struct {
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
}

// workload is one traffic mix and the topology it is served through.
// rateMid, rateHi and sloMS are frozen: ≈50 % / ≈80 % of the seed
// commit's capacity_qps on the 2-core reference box and 4× its p50_ms
// (see README.md). They never adapt to the code under test.
type workload struct {
	name    string
	cache   bool
	regions int
	ingest  bool
	replay  bool // contained-replay rectangle pattern instead of distinct scans
	// planEps, when set, is the stricter ε at which set-up must be able
	// to select a full top-ℓ for a rectangle. Ingest re-forms clusters
	// under the timed requests; the margin keeps every rectangle
	// supported at the query ε throughout, so no timed request can come
	// back 422.
	planEps float64
	rateMid float64
	rateHi  float64
	sloMS   float64
}

var workloads = []workload{
	{name: "miss_train", rateMid: 850, rateHi: 1150, sloMS: 6},
	{name: "contained_replay", cache: true, replay: true, rateMid: 2000, rateHi: 2600, sloMS: 5},
	{name: "sharded_miss", regions: 2, rateMid: 400, rateHi: 550, sloMS: 8},
	{name: "ingest_under_load", ingest: true, planEps: 0.75, rateMid: 650, rateHi: 900, sloMS: 8},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	queryEps      = 0.6
	queryTopL     = 3
	replayAnchors = 6
	ingestRowsPS  = 500 // fleet-wide, fixed
)

// rectGen draws a workload's rectangles. Their parameters (width and
// position per dimension, anchor and jitters) are the points of a
// Halton sequence displaced by a shift vector drawn from --seed
// (Cranley–Patterson rotation): every seed gives a different list, yet
// each list covers the parameter space evenly, so the quality-phase
// means (data_frac, answer_mse) of two seeds differ far less than with
// independent draws. The program only ever sees the rectangles (and
// ingest rows) generated here.
type rectGen struct {
	space   rect
	replay  bool
	anchors []rect
	shift   []float64
	// Scans and sub-windows walk the sequence with their own indices:
	// a shared one would hand every fourth point to the scans, and a
	// stride of the sequence is not evenly spread.
	scans, subs int
}

var haltonBases = []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

func newRectGen(seed int64, space rect, replay bool) (*rectGen, error) {
	coords := 2 * len(space.Min)
	if coords < 3 {
		coords = 3
	}
	if coords > len(haltonBases) {
		return nil, fmt.Errorf("bench: %d-dimensional space needs %d Halton bases", len(space.Min), coords)
	}
	src := rand.New(rand.NewSource(seed))
	g := &rectGen{space: space, replay: replay, shift: make([]float64, coords)}
	for k := range g.shift {
		g.shift[k] = src.Float64()
	}
	if replay {
		// Wide anchors staggered along dimension 0, full extent in the
		// others: PR 10's pattern, scaled to the fleet's data space.
		w := g.width(0)
		for a := 0; a < replayAnchors; a++ {
			r := g.full()
			lo := space.Min[0] + w*0.1*float64(a)
			r.Min[0], r.Max[0] = lo, lo+w*0.5
			g.anchors = append(g.anchors, r)
		}
	}
	return g, nil
}

// point advances *index and returns that point of the shifted Halton
// sequence in [0,1)^len(shift).
func (g *rectGen) point(index *int) []float64 {
	*index++
	u := make([]float64, len(g.shift))
	for k := range u {
		f, h := 1.0, 0.0
		for i, b := *index, haltonBases[k]; i > 0; i /= b {
			f /= float64(b)
			h += f * float64(i%b)
		}
		u[k] = h + g.shift[k]
		if u[k] >= 1 {
			u[k]--
		}
	}
	return u
}

func (g *rectGen) width(d int) float64 { return g.space.Max[d] - g.space.Min[d] }

func (g *rectGen) full() rect {
	return rect{Min: append([]float64(nil), g.space.Min...), Max: append([]float64(nil), g.space.Max...)}
}

// scan is a cold rectangle: 20–60 % of the space's width per dimension.
func (g *rectGen) scan(u []float64) rect {
	r := g.full()
	for d := range r.Min {
		w := g.width(d) * (0.2 + 0.4*u[2*d])
		lo := g.space.Min[d] + (g.width(d)-w)*u[2*d+1]
		r.Min[d], r.Max[d] = lo, lo+w
	}
	return r
}

// draw returns rectangle i. In the replay pattern the first
// replayAnchors are the anchors; after them every fourth rectangle is
// a cold scan and the rest are jittered sub-windows of an anchor.
func (g *rectGen) draw(i int) rect {
	if g.replay && i < replayAnchors {
		return g.anchors[i]
	}
	if !g.replay || i%4 == 0 {
		return g.scan(g.point(&g.scans))
	}
	u := g.point(&g.subs)
	a := g.anchors[int(u[2]*replayAnchors)]
	r := rect{Min: append([]float64(nil), a.Min...), Max: append([]float64(nil), a.Max...)}
	w := g.width(0)
	r.Min[0] += w * (0.01 + 0.11*u[0])
	r.Max[0] -= w * (0.01 + 0.11*u[1])
	return r
}

// redrawable reports whether rectangle i may be replaced when the
// gateway cannot plan it (anchors are fixed by construction).
func (g *rectGen) redrawable(i int) bool { return !g.replay || i >= replayAnchors }

// queryBody is the POST /v1/query and /v1/plan request body.
type queryBody struct {
	Bounds        rect    `json:"bounds"`
	Selector      string  `json:"selector"`
	Epsilon       float64 `json:"epsilon"`
	TopL          int     `json:"top_l"`
	IncludeParams bool    `json:"include_params,omitempty"`
}

func encodeBody(r rect, eps float64, includeParams bool) []byte {
	b, err := json.Marshal(queryBody{Bounds: r, Selector: "query-driven", Epsilon: eps, TopL: queryTopL, IncludeParams: includeParams})
	if err != nil {
		panic(fmt.Sprintf("bench: encode request: %v", err)) // floats from a finite space always encode
	}
	return b
}

// requests is a workload's pre-encoded request list.
type requests struct {
	rects  []rect
	bodies [][]byte
}

// generate draws n rectangles, asking plannable (POST /v1/plan in the
// real set-up) about each one and redrawing those it rejects, so every
// timed request can be answered 200.
func generate(seed int64, space rect, replay bool, n int, plannable func(r rect) (bool, error)) (*requests, error) {
	g, err := newRectGen(seed, space, replay)
	if err != nil {
		return nil, err
	}
	out := &requests{rects: make([]rect, 0, n), bodies: make([][]byte, 0, n)}
	for i := 0; i < n; i++ {
		for try := 0; ; try++ {
			r := g.draw(i)
			ok, err := plannable(r)
			if err != nil {
				return nil, err
			}
			if ok {
				out.rects = append(out.rects, r)
				out.bodies = append(out.bodies, encodeBody(r, queryEps, false))
				break
			}
			if !g.redrawable(i) || try == 100 {
				return nil, fmt.Errorf("bench: rectangle %d %v cannot be planned", i, r)
			}
		}
	}
	return out, nil
}

// box is one advertised cluster: its bounding rectangle and size.
type box struct {
	rect
	size int
}

// rowGen draws ingest rows for one node from what the node advertises:
// a cluster picked in proportion to its size, then a point uniform in
// that cluster's rectangle, so the stream keeps the shard's shape.
// Once shifted is set every row is displaced by a tenth of its
// cluster's width in every dimension: the half-time distribution shift
// that moves cluster bounds and makes the nodes re-advertise.
type rowGen struct {
	src   *rand.Rand
	boxes []box
	total int
}

func newRowGen(seed int64, boxes []box) *rowGen {
	g := &rowGen{src: rand.New(rand.NewSource(seed)), boxes: boxes}
	for _, b := range boxes {
		g.total += b.size
	}
	return g
}

func (g *rowGen) rows(n int, shifted bool) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		pick := g.src.Intn(g.total)
		b := g.boxes[len(g.boxes)-1]
		for _, c := range g.boxes {
			if pick -= c.size; pick < 0 {
				b = c
				break
			}
		}
		row := make([]float64, len(b.Min))
		for d := range row {
			w := b.Max[d] - b.Min[d]
			row[d] = b.Min[d] + w*g.src.Float64()
			if shifted {
				row[d] += 0.1 * w
			}
		}
		out[i] = row
	}
	return out
}

package fec

import (
	"github.com/tacktp/tack/internal/packet"
)

// Decoder is the receiver half: it collects source and repair symbols per
// group and reconstructs missing DATA packets once any k of a group's k+r
// symbols have arrived. It is defensive by construction — symbols with
// bogus indices, conflicting geometry, or oversized payloads are dropped
// and counted, never trusted — and bounded: at most MaxGroups groups are
// tracked (FIFO eviction) and symbols larger than MaxSymbol are refused,
// so a hostile peer cannot grow receiver memory without limit.
type Decoder struct {
	maxGroups int
	maxSymbol int

	groups map[uint32]*group
	order  []uint32 // group-id arrival order for FIFO eviction

	// Counters (the receiver mirrors them into telemetry).
	Recovered      uint64 // packets reconstructed
	RecoveredBytes uint64 // payload bytes reconstructed
	RepairsUsed    uint64 // repair symbols consumed by successful solves
	RepairsWasted  uint64 // repairs that arrived for already-complete groups, duplicates, or expired unused
	Dropped        uint64 // symbols rejected: bad geometry, bogus index, oversize, corrupt solve
}

// group tracks one FEC group's arrivals. Geometry (k, r) is unknown until
// the first repair arrives: source symbols carry only their group id and
// index, so until then they are parked by index.
type group struct {
	geomKnown bool
	k, r      int

	src     [][]byte // serialized source symbols by index
	have    []bool
	nHave   int // count of held sources with index < k (== len(src) pre-geometry)
	repairs [][]byte
	repHave []bool
	nRep    int
	maxLen  int
	done    bool // fully received or recovered: arrivals are duplicates/waste
}

// DefaultMaxGroups bounds decoder group state; with in-order delivery only
// a handful of groups are ever open, so 64 tolerates deep reorder while
// capping memory.
const DefaultMaxGroups = 64

// DefaultMaxSymbol bounds one symbol's serialized size: generously above
// any real MTU-framed DATA packet.
const DefaultMaxSymbol = 8192

// NewDecoder returns a decoder tracking at most maxGroups concurrent
// groups of symbols no larger than maxSymbol bytes (≤0 selects defaults).
func NewDecoder(maxGroups, maxSymbol int) *Decoder {
	if maxGroups <= 0 {
		maxGroups = DefaultMaxGroups
	}
	if maxSymbol <= 0 {
		maxSymbol = DefaultMaxSymbol
	}
	return &Decoder{
		maxGroups: maxGroups,
		maxSymbol: maxSymbol,
		groups:    make(map[uint32]*group),
	}
}

func (d *Decoder) lookup(id uint32) *group {
	if g, ok := d.groups[id]; ok {
		return g
	}
	for len(d.groups) >= d.maxGroups {
		oldest := d.order[0]
		d.order = d.order[1:]
		if g, ok := d.groups[oldest]; ok {
			if !g.done {
				d.RepairsWasted += uint64(g.nRep)
			}
			delete(d.groups, oldest)
		}
	}
	g := &group{}
	d.groups[id] = g
	d.order = append(d.order, id)
	return g
}

// AddSource feeds a received FEC-tagged DATA packet (HasFEC set) into its
// group and returns any packets recovery reconstructed as a consequence —
// non-nil when this source was the last straw for a group whose repairs
// arrived first (reorder).
func (d *Decoder) AddSource(p *packet.Packet) []*packet.Packet {
	sym := appendSymbol(nil, p)
	if len(sym) > d.maxSymbol || int(p.FECIndex) >= maxSymbols {
		d.Dropped++
		return nil
	}
	g := d.lookup(p.FECGroup)
	if g.done {
		return nil // late duplicate of a settled group
	}
	idx := int(p.FECIndex)
	if g.geomKnown && idx >= g.k {
		d.Dropped++ // index beyond the geometry the repairs pinned
		return nil
	}
	for len(g.src) <= idx {
		g.src = append(g.src, nil)
		g.have = append(g.have, false)
	}
	if g.have[idx] {
		return nil // duplicate source
	}
	g.src[idx] = sym
	g.have[idx] = true
	g.nHave++
	if len(sym) > g.maxLen {
		g.maxLen = len(sym)
	}
	return d.tryRecover(p.FECGroup, g)
}

// AddRepair feeds a received REPAIR packet into its group and returns any
// packets recovery reconstructed. The packet must already have passed
// packet.Sane (k ≥ 1, r ≥ 1, index < r, k+r ≤ 255, nonzero scheme); one
// whose scheme is not SchemeRS is dropped.
func (d *Decoder) AddRepair(p *packet.Packet) []*packet.Packet {
	if len(p.Payload) > d.maxSymbol || Scheme(p.FECScheme) != SchemeRS {
		d.Dropped++
		return nil
	}
	g := d.lookup(p.FECGroup)
	if g.done {
		d.RepairsWasted++
		return nil
	}
	k, r := int(p.FECGroupLen), int(p.FECRepairCount)
	if g.geomKnown {
		if g.k != k || g.r != r {
			d.Dropped++ // conflicting geometry: someone is lying
			return nil
		}
	} else {
		g.geomKnown = true
		g.k, g.r = k, r
		g.repairs = make([][]byte, r)
		g.repHave = make([]bool, r)
		// Drop parked sources whose index the pinned geometry disavows.
		for i := k; i < len(g.src); i++ {
			if g.have[i] {
				g.have[i] = false
				g.nHave--
				d.Dropped++
			}
		}
		if len(g.src) > k {
			g.src, g.have = g.src[:k], g.have[:k]
		}
		for len(g.src) < k {
			g.src = append(g.src, nil)
			g.have = append(g.have, false)
		}
	}
	j := int(p.FECIndex)
	if j >= g.r || g.repHave[j] {
		d.RepairsWasted++ // duplicate (Sane already bounds j < r)
		return nil
	}
	g.repairs[j] = append([]byte(nil), p.Payload...)
	g.repHave[j] = true
	g.nRep++
	if len(p.Payload) > g.maxLen {
		g.maxLen = len(p.Payload)
	}
	return d.tryRecover(p.FECGroup, g)
}

// tryRecover runs when a group might have become solvable: k known, and
// the held sources plus repairs cover the k data symbols.
func (d *Decoder) tryRecover(id uint32, g *group) []*packet.Packet {
	if !g.geomKnown {
		return nil
	}
	missing := g.k - g.nHave
	if missing == 0 {
		// Fully received off the wire: every repair on hand bought nothing.
		g.done = true
		d.RepairsWasted += uint64(g.nRep)
		return nil
	}
	if missing > g.nRep {
		return nil // not yet solvable
	}
	recovered := d.solve(id, g, missing)
	if recovered == nil {
		return nil
	}
	g.done = true
	d.RepairsUsed += uint64(missing)
	d.RepairsWasted += uint64(g.nRep - missing)
	return recovered
}

// solve reconstructs the m missing source symbols by Gaussian elimination
// over GF(2^8): each available repair j contributes the equation
// Σ_{i missing} coeff(j,i)·s_i = repair_j ⊕ Σ_{i held} coeff(j,i)·s_i.
// Returns nil (and counts a drop) if the system is singular — impossible
// for honestly-coded Cauchy symbols, reachable only via forged input —
// or if a solved symbol fails structural parsing.
func (d *Decoder) solve(id uint32, g *group, m int) []*packet.Packet {
	missing := make([]int, 0, m)
	for i := 0; i < g.k; i++ {
		if !g.have[i] {
			missing = append(missing, i)
		}
	}

	// Build one augmented row per available repair: coefficients over the
	// missing indices plus the repair folded with every held source.
	type row struct {
		co  []byte
		rhs []byte
	}
	rows := make([]row, 0, g.nRep)
	for j := 0; j < g.r; j++ {
		if !g.repHave[j] {
			continue
		}
		rhs := make([]byte, g.maxLen)
		copy(rhs, g.repairs[j])
		for i := 0; i < g.k; i++ {
			if g.have[i] {
				addScaled(rhs, g.src[i], coeff(j, i))
			}
		}
		co := make([]byte, m)
		for c, i := range missing {
			co[c] = coeff(j, i)
		}
		rows = append(rows, row{co, rhs})
	}

	// Forward elimination with partial pivoting over the byte matrix.
	for col := 0; col < m; col++ {
		piv := -1
		for r := col; r < len(rows); r++ {
			if rows[r].co[col] != 0 {
				piv = r
				break
			}
		}
		if piv < 0 {
			d.Dropped++ // singular: forged or corrupted symbols
			return nil
		}
		rows[col], rows[piv] = rows[piv], rows[col]
		// Normalize the pivot row to a leading 1.
		if c := rows[col].co[col]; c != 1 {
			inv := gfInv(c)
			for x := col; x < m; x++ {
				rows[col].co[x] = gfMul(rows[col].co[x], inv)
			}
			scaleRow(rows[col].rhs, inv)
		}
		for r := 0; r < len(rows); r++ {
			if r == col || rows[r].co[col] == 0 {
				continue
			}
			c := rows[r].co[col]
			for x := col; x < m; x++ {
				rows[r].co[x] ^= gfMul(c, rows[col].co[x])
			}
			addScaled(rows[r].rhs, rows[col].rhs, c)
		}
	}

	out := make([]*packet.Packet, 0, m)
	for c, i := range missing {
		p, ok := parseSymbol(rows[c].rhs)
		if !ok {
			d.Dropped++
			return nil
		}
		p.HasFEC = true
		p.FECGroup = id
		p.FECIndex = uint8(i)
		out = append(out, p)
	}
	for _, p := range out {
		d.Recovered++
		d.RecoveredBytes += uint64(len(p.Payload))
	}
	return out
}

// scaleRow multiplies a byte vector by c in place.
func scaleRow(v []byte, c byte) {
	if c == 1 {
		return
	}
	lc := int(gfLog[c])
	for i, b := range v {
		if b != 0 {
			v[i] = gfExp[lc+int(gfLog[b])]
		}
	}
}

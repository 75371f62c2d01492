package gpu

import (
	"math/bits"
)

// Cache is a set-associative LRU cache over line addresses. It tracks only
// presence (no data), which is all the performance model needs. Line
// addresses are trace line ids, in [0, MaxTraceLine].
type Cache struct {
	sets int
	ways int
	// setMul is Lemire's reciprocal of sets: a line's set is computed with two
	// multiplies instead of a division (set), exact for 32-bit line ids.
	setMul uint64
	// tags[set*ways+way] holds the line id plus one, or 0 if invalid: a set's
	// tags are contiguous and four bytes each, so the scan a hit needs reads
	// one host cache line for up to sixteen ways.
	tags []uint32
	// stamps[set*ways+way] is the last-access tick for LRU replacement (0 =
	// never used, which only an invalid way is).
	stamps []int64
	tick   int64
}

// init shapes c as an empty cache of capacityBytes with the given line size
// and associativity (capacity rounded down to whole sets; a capacity smaller
// than one way per set still yields a one-line cache), reusing its arrays
// when they are large enough: the simulator's workspace keeps one L2 and a
// pool of L1s across calls.
func (c *Cache) init(capacityBytes, lineBytes, ways int) {
	lines := capacityBytes / lineBytes
	if lines < 1 {
		lines = 1
	}
	if ways < 1 {
		ways = 1
	}
	sets := lines / ways
	if sets < 1 {
		sets = 1
		if ways > lines {
			ways = lines
		}
	}
	n := sets * ways
	if cap(c.tags) < n {
		c.tags = make([]uint32, n)
		c.stamps = make([]int64, n)
	}
	*c = Cache{sets: sets, ways: ways, setMul: ^uint64(0)/uint64(sets) + 1, tags: c.tags[:n], stamps: c.stamps[:n]}
	c.Reset()
}

// set returns line mod sets (Lemire, Kaser and Kurz, "Faster remainder by
// direct computation", 2019: exact for a 32-bit dividend and divisor).
func (c *Cache) set(line uint32) int {
	hi, _ := bits.Mul64(c.setMul*uint64(line), uint64(c.sets))
	return int(hi)
}

// access touches a line id Simulate's recording already bounded and reports
// whether it hit. A miss installs the line, evicting the set's LRU way: the
// first way holding the minimum stamp. The tags are scanned first and the
// stamps only on a miss — a hit, the common case, touches one array.
func (c *Cache) access(line uint32) bool {
	c.tick++
	base := c.set(line) * c.ways
	tag := line + 1
	tags := c.tags[base : base+c.ways]
	for w, t := range tags {
		if t == tag {
			c.stamps[base+w] = c.tick
			return true
		}
	}
	stamps := c.stamps[base : base+c.ways]
	victim, oldest := 0, stamps[0]
	for w := 1; w < len(stamps) && oldest > 0; w++ {
		if s := stamps[w]; s < oldest {
			victim, oldest = w, s
		}
	}
	tags[victim] = tag
	stamps[victim] = c.tick
	return false
}

// Reset clears the contents.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.stamps)
	c.tick = 0
}

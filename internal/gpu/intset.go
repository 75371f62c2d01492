package gpu

// lineSet is the set of distinct trace line ids one simulation saw: a bitmap
// over line ids, allocated in 8 KiB pages of 65536 ids as the ids arrive.
// The simulator inserts every sampled trace line to measure the sample's
// working set. Trace lines cluster (a row's feature lines are consecutive, a
// segment's rows are near each other), so a handful of pages holds a whole
// trace and an insert touches memory its neighbours just touched — unlike a
// hash table, which scatters them. The zero value is an empty set.
type lineSet struct {
	pages   [][]uint64 // by id >> pageShift; nil = no id in that range yet
	touched []int      // pages holding ids, for reset
	spare   [][]uint64 // cleared pages from earlier uses
	used    int
}

const (
	pageShift = 16
	pageWords = 1 << pageShift / 64
)

// Add inserts v and reports whether it was new.
func (s *lineSet) Add(v uint32) bool {
	p := int(v >> pageShift)
	if p >= len(s.pages) {
		s.pages = append(s.pages, make([][]uint64, p+1-len(s.pages))...)
	}
	page := s.pages[p]
	if page == nil {
		if n := len(s.spare); n > 0 {
			page, s.spare = s.spare[n-1], s.spare[:n-1]
		} else {
			page = make([]uint64, pageWords)
		}
		s.pages[p] = page
		s.touched = append(s.touched, p)
	}
	w, bit := v/64%pageWords, uint64(1)<<(v%64)
	if page[w]&bit != 0 {
		return false
	}
	page[w] |= bit
	s.used++
	return true
}

// Len returns the number of distinct values inserted.
func (s *lineSet) Len() int { return s.used }

// reset empties the set for its next use: only the pages the last use
// touched are cleared, and they are kept for the next.
func (s *lineSet) reset() {
	for _, p := range s.touched {
		clear(s.pages[p])
		s.spare = append(s.spare, s.pages[p])
		s.pages[p] = nil
	}
	s.touched = s.touched[:0]
	s.used = 0
}

package queryserve

import "sort"

// The ranked search SearchPage replaced, kept as its oracle: materialise
// every match as a Hit, filter by kind in a second pass, sort the lot, then
// cut the page out of the sorted list. Its cost grows with the result set;
// its answers are what FuzzSearchPageMatchesReference holds SearchPage to.

// Search returns every hit for the terms, ranked by (score desc, key asc).
func (x *Index) Search(terms []string, mode Mode, kind int) []Hit {
	if len(terms) == 0 {
		return nil
	}
	x.mu.RLock()
	defer x.mu.RUnlock()
	var hits []Hit
	if mode == And {
		lists := make([][]int32, 0, len(terms))
		var score int32
		for _, t := range terms {
			p := x.list(t)
			if len(p) == 0 {
				return nil
			}
			score += termWeight(t)
			lists = append(lists, p)
		}
		sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
		for _, id := range referenceIntersect(lists) {
			hits = append(hits, Hit{Doc: x.docs[id], Score: score})
		}
	} else {
		scores := make(map[int32]int32)
		for _, t := range terms {
			p := x.list(t)
			w := termWeight(t)
			for _, id := range p {
				scores[id] += w
			}
		}
		hits = make([]Hit, 0, len(scores))
		for id, s := range scores {
			hits = append(hits, Hit{Doc: x.docs[id], Score: s})
		}
	}
	if kind >= 0 {
		kept := hits[:0]
		for _, h := range hits {
			if h.Kind == DocKind(kind) {
				kept = append(kept, h)
			}
		}
		hits = kept
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Key < hits[j].Key
	})
	return hits
}

// referenceIntersect copies the shortest list and filters it through the
// others.
func referenceIntersect(lists [][]int32) []int32 {
	out := append([]int32(nil), lists[0]...)
	for _, l := range lists[1:] {
		kept := out[:0]
		lo := 0
		for _, id := range out {
			at := lo + sort.Search(len(l)-lo, func(i int) bool { return l[lo+i] >= id })
			if at < len(l) && l[at] == id {
				kept = append(kept, id)
			}
			lo = at
			if lo >= len(l) {
				break
			}
		}
		out = kept
		if len(out) == 0 {
			break
		}
	}
	return out
}

// pageHits applies the cursor and page size to a ranked result list,
// returning the page and the next cursor ("" when the walk is done).
func pageHits(hits []Hit, cur Cursor, limit int, anchored bool) ([]Hit, string) {
	start := 0
	if anchored {
		for start < len(hits) && !cur.After(hits[start].Score, hits[start].Key) {
			start++
		}
	}
	end := len(hits)
	if limit > 0 && start+limit < end {
		end = start + limit
	}
	page := hits[start:end]
	next := ""
	if end < len(hits) && len(page) > 0 {
		last := page[len(page)-1]
		next = Cursor{Score: last.Score, Key: last.Key}.Encode()
	}
	return page, next
}

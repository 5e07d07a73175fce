package queryserve

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"daspos/internal/catalog"
	"daspos/internal/hepdata"
)

// The term builders AddRecord and AddDataset replaced — a set per document,
// a string per term, then a sort — kept as the definition of a document's
// terms. FuzzTermsMatchReference holds the index to them, and
// FuzzIndexSearchRoundTrip searches for every term they derive.

// recordTerms derives the term set of a record. Field terms carry a
// namespace prefix ("reaction:", "obs:", "inspire:", "collab:", "year:");
// free text from the title, abstract, collaboration, table names, and
// reaction strings lands as bare tokens under "t:".
func recordTerms(r *hepdata.Record) []string {
	set := make(map[string]struct{})
	add := func(t string) {
		if t != "" {
			set[t] = struct{}{}
		}
	}
	addText := func(s string) {
		for _, tok := range Tokenize(s) {
			add("t:" + tok)
		}
	}
	add("inspire:" + strings.ToLower(r.InspireID))
	add("collab:" + canon(r.Collaboration))
	if r.Year != 0 {
		add("year:" + strconv.Itoa(r.Year))
	}
	addText(r.Title)
	addText(r.Abstract)
	addText(r.Collaboration)
	for i := range r.Tables {
		t := &r.Tables[i]
		addText(t.Name)
		for _, re := range t.Reactions {
			add("reaction:" + canon(re))
			addText(re)
		}
		for _, ob := range t.Observables {
			add("obs:" + canon(ob))
			addText(ob)
		}
	}
	return sortedTerms(set)
}

// datasetTerms derives the term set of a dataset: tier, processing
// version, conditions tag, parent, metadata key/value pairs, and the path
// segments of the dataset name as free tokens.
func datasetTerms(d *catalog.Dataset) []string {
	set := make(map[string]struct{})
	add := func(t string) {
		if t != "" {
			set[t] = struct{}{}
		}
	}
	add("tier:" + canon(d.Tier))
	if d.ProcessingVersion != "" {
		add("version:" + canon(d.ProcessingVersion))
	}
	if d.ConditionsTag != "" {
		add("conditions:" + canon(d.ConditionsTag))
	}
	if d.Parent != "" {
		add("parent:" + strings.ToLower(d.Parent))
	}
	for k, v := range d.Metadata {
		add("meta:" + canon(k) + "=" + canon(v))
	}
	for _, tok := range Tokenize(d.Name) {
		add("t:" + tok)
	}
	return sortedTerms(set)
}

func sortedTerms(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// add indexes doc under the given terms, as AddRecord and AddDataset index
// the terms they build.
func (x *Index) add(doc Doc, terms []string) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	id, err := x.insert(doc)
	if err != nil {
		return err
	}
	for _, t := range terms {
		x.term = append(x.term[:0], t...)
		x.post(id)
	}
	return nil
}

// termLists returns every term's posting list by term: what the index
// holds, whatever order its lists were created in.
func (x *Index) termLists() map[string][]int32 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := make(map[string][]int32, len(x.postings))
	for t, at := range x.postings {
		out[t] = x.lists[at]
	}
	return out
}

// termsOf returns the sorted terms whose posting lists hold id.
func termsOf(lists map[string][]int32, id int32) []string {
	out := []string{}
	for t, l := range lists {
		at := sort.Search(len(l), func(i int) bool { return l[i] >= id })
		if at < len(l) && l[at] == id {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// FuzzTermsMatchReference holds the terms AddRecord and AddDataset build
// in the index's scratch to the reference builders above, exactly. Two
// records and two datasets are made of the fuzzed strings and indexed in
// turn, so the second of each finds most of its terms already held; each
// document's terms — the terms whose lists hold its id — must be the
// reference's set, and every list must be strictly increasing, a document
// posted once however often it names a term. The seeds put in a field what
// lowercasing or whitespace splitting treats apart from ASCII: U+212A
// KELVIN SIGN (lowercases to ASCII k), U+0130 (to i and a combining dot),
// U+00A0 and U+0085 (spaces to strings.Fields, not to an ASCII scan), tab,
// CR, VT and FF, and invalid UTF-8.
func FuzzTermsMatchReference(f *testing.F) {
	f.Add("1234567", "Measurement of Z-boson PT", "P P --> Z0 X", 2013)
	f.Add("KKelvin", "KK 3K", "ATLAS KK", 1)
	f.Add("İstanbul", "DİJET İİ", "xİy", -7)
	f.Add("a b", "NO BREAK    space", "P P --> Z", 0)
	f.Add("n\u0085l", "next\u0085line \u0085", "A\u0085B", 2020)
	f.Add("ws", "tab\tcr\rvt\vff\f end", "A\tB\rC\vD\fE F", 99)
	f.Add("bad\xff", "in\xffvalid \xfe\xfe utf8 \xc3", "\xc3(\xa0) X", 12)
	f.Add("", "", "", 0)
	f.Add("x", "a b c dd dd DD", "dd DD", 1999)
	f.Fuzz(func(t *testing.T, a, b, c string, year int) {
		record := func(inspire string) *hepdata.Record {
			return &hepdata.Record{
				InspireID: inspire, Title: b, Collaboration: c, Year: year, Abstract: a + " " + c,
				Tables: []hepdata.Table{
					{Name: b, Reactions: []string{c, a}, Observables: []string{b}},
					{Name: a, Reactions: []string{strings.ToUpper(c)}, Observables: []string{c, a + b}},
				},
			}
		}
		dataset := func(name string) *catalog.Dataset {
			return &catalog.Dataset{
				Name: name, Tier: b, ProcessingVersion: c, ConditionsTag: a, Parent: b + c,
				Metadata: map[string]string{a: b, c: a, strings.ToUpper(a): c, b + "=" + c: ""},
			}
		}
		r1, d1, r2, d2 := record(a), dataset(a), record(a+"2"), dataset(a+"/2")
		x := NewIndex()
		for _, err := range []error{
			x.AddRecord(r1, r1.ID(), "e1"), x.AddDataset(d1, "e2"), x.AddRecord(r2, r2.ID(), "e3"), x.AddDataset(d2, "e4"),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		lists := x.termLists()
		for term, l := range lists {
			for i := 1; i < len(l); i++ {
				if l[i-1] >= l[i] {
					t.Fatalf("term %q: posting list %v is not strictly increasing", term, l)
				}
			}
		}
		for id, want := range [][]string{recordTerms(r1), datasetTerms(d1), recordTerms(r2), datasetTerms(d2)} {
			if got := termsOf(lists, int32(id)); !reflect.DeepEqual(got, want) {
				t.Fatalf("doc %d (%s): terms\n got %q\nwant %q", id, x.docs[id].Kind, got, want)
			}
		}
	})
}

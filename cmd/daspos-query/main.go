// Command daspos-query serves the preserved-analysis read path: indexed
// search, cached conditional-GET record serving, and streamed export over
// the HepData archive and the dataset catalog.
//
// Usage:
//
//	daspos-query serve [-addr :8090] [-records N] [-datasets N] [-seed S]
//	daspos-query demo  [-records N] [-datasets N] [-seed S]
//
// serve starts the HTTP query front end with a deterministic demo corpus
// published (use -records 0 for an empty server and POST your own):
// GET /records?q=... searches the inverted index, GET /records/{id} serves
// cached record bodies with strong ETags, GET /records/{id}/export streams
// one record as JSON, CSV or YAML, and GET /status reports index and
// cache counters. SIGINT/SIGTERM drain in-flight requests before exit. demo runs
// a seeded mix of 2,000 reads against an in-process server and prints the
// stage report — cache hits, misses, coalesced fills, 304s.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"daspos/internal/catalog"
	"daspos/internal/daemon"
	"daspos/internal/hepdata"
	"daspos/internal/queryserve"
	"daspos/internal/texttable"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("daspos-query: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: daspos-query {serve|demo} [flags]")
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "demo":
		demo(os.Args[2:])
	default:
		log.Fatalf("unknown subcommand %q", os.Args[1])
	}
}

// demoReads is the length of demo's read mix.
const demoReads = 2000

func newServer(records, datasets int, seed uint64) *queryserve.Server {
	srv, err := queryserve.NewServer(queryserve.Config{
		Archive: hepdata.NewArchive(),
		Catalog: catalog.New(),
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if _, err := srv.PublishRecord(demoRecord(seed, i)); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < datasets; i++ {
		if _, err := srv.PublishDataset(demoDataset(seed, i)); err != nil {
			log.Fatal(err)
		}
	}
	return srv
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "listen address")
	records := fs.Int("records", 200, "demo records to publish at startup (0 = start empty)")
	datasets := fs.Int("datasets", 60, "demo datasets to publish at startup")
	seed := fs.Uint64("seed", 11, "demo corpus seed")
	_ = fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := newServer(*records, *datasets, *seed)
	st := srv.Stats()
	log.Printf("query front end on %s (%d records, %d datasets, %d index terms)",
		*addr, st.Records, st.Datasets, st.IndexTerms)
	if err := daemon.Serve(ctx, *addr, srv.Handler(), nil); err != nil {
		log.Fatal(err)
	}
}

func demo(args []string) {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	records := fs.Int("records", 400, "demo records to publish")
	datasets := fs.Int("datasets", 80, "demo datasets to publish")
	seed := fs.Uint64("seed", 11, "corpus and schedule seed")
	_ = fs.Parse(args)

	srv := newServer(*records, *datasets, *seed)
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	// The read mix: hot-key lookups over a small working set, a cold tail,
	// plus searches, paginated scans, and export streams.
	var hot, cold []string
	for i := 0; i < *records; i++ {
		id := demoRecord(*seed, i).ID()
		if i < 8 {
			hot = append(hot, id)
		} else {
			cold = append(cold, id)
		}
	}
	keys := readSchedule(*seed, hot, cold, demoReads)

	client := hts.Client()
	etags := make(map[string]string) // warm validators for conditional GETs
	var mu sync.Mutex
	get := func(path, validator string) (int, string) {
		req, err := http.NewRequest("GET", hts.URL+path, nil)
		if err != nil {
			log.Fatal(err)
		}
		if validator != "" {
			req.Header.Set("If-None-Match", validator)
		}
		resp, err := client.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 4096)
		for {
			if _, err := resp.Body.Read(buf); err != nil {
				break
			}
		}
		return resp.StatusCode, resp.Header.Get("ETag")
	}

	start := time.Now()
	var wg sync.WaitGroup
	per := len(keys) / 4
	for w := 0; w < 4; w++ {
		part := keys[w*per : (w+1)*per]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, key := range part {
				mu.Lock()
				validator := etags[key]
				mu.Unlock()
				code, etag := get("/records/"+key, validator)
				if code == 200 && etag != "" {
					mu.Lock()
					etags[key] = etag
					mu.Unlock()
				}
				switch i % 50 {
				case 10:
					get("/records?q=reaction:PP-->ZPRIMEX", "")
				case 20:
					get("/records?q=boson+measurement&mode=or&limit=25", "")
				case 30:
					get("/records/"+key+"/export?format=csv", "")
				case 40:
					get("/datasets?tier=AOD", "")
				case 45:
					get("/records?limit=50", "") // paginated scan page
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := srv.Stats()
	t := texttable.New("Counter", "Value")
	t.Title = fmt.Sprintf("daspos-query demo: %d reads in %v (%d records, %d datasets)",
		demoReads, elapsed.Round(time.Millisecond), st.Records, st.Datasets)
	t.SetAlign(1, texttable.Right)
	t.AddRow("index docs", st.IndexDocs)
	t.AddRow("index terms", st.IndexTerms)
	t.AddRow("record lookups", st.Lookups)
	t.AddRow("searches", st.Searches)
	t.AddRow("pages served", st.Pages)
	t.AddRow("exports streamed", st.Exports)
	t.AddRow("304 not modified", st.NotModified)
	t.AddRow("cache hits", st.Cache.Hits)
	t.AddRow("cache misses", st.Cache.Misses)
	t.AddRow("coalesced fills", st.Cache.Coalesced)
	t.AddRow("evictions", st.Cache.Evictions)
	fmt.Println(t)
	if st.Cache.Hits+st.Cache.Misses > 0 {
		fmt.Printf("cache hit rate: %.1f%%\n",
			100*float64(st.Cache.Hits)/float64(st.Cache.Hits+st.Cache.Misses))
	}
}

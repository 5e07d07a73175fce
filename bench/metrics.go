package bench

import "encoding/json"

// MetricDef declares one metric of BENCHMARK.json. Bound is the share of
// the parent commit's median by which an end-to-end metric may get worse;
// per-layer metrics have none. Layer is the module a per-layer metric
// belongs to.
type MetricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
}

// EndToEnd is what a later change is gated on. The contract makes every
// workload print every one of them, so the list holds the four that mean
// the same on every workload: each workload does a fixed amount of work,
// and wall_s is how long a user waits for it, cpu_s what it costs.
// README.md, "Bounds and demotions", gives the measured spreads behind
// each bound.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// demoted are the issue's end-to-end candidates that only one or two
// workloads can measure: the rates of single phases, and the serving-path
// latencies. They are measured by their own workload (and by chain, for
// the phases it has) and printed with the per-layer metrics, ungated; the
// gate on them is wall_s of the workload whose fixed work they pace.
var demoted = []MetricDef{
	{Name: "produce_events_per_s", Unit: "1/s", Better: "higher", Layer: "workflow"},
	{Name: "ingest_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "archive"},
	{Name: "restore_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "archive"},
	{Name: "audit_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "archive"},
	{Name: "stored_bytes_per_logical_byte", Unit: "ratio", Better: "lower", Layer: "cas"},
	{Name: "recast_done_per_s", Unit: "1/s", Better: "higher", Layer: "recast"},
	{Name: "query_cached_rps", Unit: "1/s", Better: "higher", Layer: "queryserve"},
	{Name: "query_cold_rps", Unit: "1/s", Better: "higher", Layer: "queryserve"},
	{Name: "query_p50_us", Unit: "us", Better: "lower", Layer: "queryserve"},
	{Name: "query_p99_us", Unit: "us", Better: "lower", Layer: "queryserve"},
	{Name: "recast_p50_ms", Unit: "ms", Better: "lower", Layer: "recast"},
	{Name: "recast_p95_ms", Unit: "ms", Better: "lower", Layer: "recast"},
}

// queryClasses are the request classes of the query workload.
var queryClasses = []string{"hot_lookup", "revalidate_304", "cold_lookup", "search", "scan_page", "export", "publish"}

// workflowSteps are the steps of the production graph.
var workflowSteps = []string{"online", "reconstruction", "aod-slim", "derivation-train"}

// chainLayers are the rows of the chain's where-did-the-time-go table.
var chainLayers = []string{"produce", "archive", "cas", "cluster", "node", "hepdata", "queryserve", "recast"}

// PerLayer is what single layers report from a traced run. A layer that a
// workload does not touch reads 0 there: it did no work.
var PerLayer = perLayerDefs()

func perLayerDefs() []MetricDef {
	defs := append([]MetricDef(nil), demoted...)
	add := func(layer, name, unit, better string) {
		defs = append(defs, MetricDef{Name: name, Unit: unit, Better: better, Layer: layer})
	}
	// Stage busy time and counts summed from eventflow.Report.
	add("generator", "generator.busy_s", "s", "lower")
	add("sim", "sim.busy_s", "s", "lower")
	add("trigger", "trigger.busy_s", "s", "lower")
	add("trigger", "trigger.accept_ratio", "ratio", "higher")
	add("rawdata", "rawdata.digitize_busy_s", "s", "lower")
	add("rawdata", "rawdata.write_busy_s", "s", "lower")
	add("rawdata", "rawdata.read_busy_s", "s", "lower")
	add("reco", "reco.busy_s", "s", "lower")
	add("skim", "skim.busy_s", "s", "lower")
	add("datamodel", "datamodel.encode_busy_s", "s", "lower")
	add("datamodel", "datamodel.decode_busy_s", "s", "lower")
	for _, tier := range []string{"raw", "reco", "aod", "derived"} {
		add("datamodel", "datamodel.bytes_per_event."+tier, "B", "lower")
	}
	add("eventflow", "eventflow.wall_s", "s", "lower")
	add("eventflow", "eventflow.busy_ratio", "ratio", "higher")
	add("eventflow", "eventflow.batches", "count", "lower")
	add("eventflow", "eventflow.pool_miss_ratio", "ratio", "lower")
	add("eventflow", "eventflow.max_in_flight", "count", "lower")
	add("eventflow", "eventflow.restarts", "count", "lower")
	for _, step := range workflowSteps {
		add("workflow", "workflow.step_s."+step, "s", "lower")
	}
	add("workflow", "workflow.commit_s", "s", "lower")
	add("checkpoint", "checkpoint.objects", "count", "lower")
	add("checkpoint", "checkpoint.bytes_committed", "B", "lower")
	add("provenance", "provenance.complete_fraction", "ratio", "higher")

	add("archive", "archive.ingest_s", "s", "lower")
	add("archive", "archive.fetch_s", "s", "lower")
	add("archive", "archive.verify_s", "s", "lower")
	add("cas", "cas.hash_compress_s", "s", "lower")
	add("cas", "cas.verify_decode_s", "s", "lower")
	add("cas", "cas.compression_ratio", "ratio", "higher")

	add("cluster", "cluster.put_calls", "count", "lower")
	add("cluster", "cluster.get_calls", "count", "lower")
	add("cluster", "cluster.has_calls", "count", "lower")
	add("cluster", "cluster.put_ms_p50_small", "ms", "lower")
	add("cluster", "cluster.put_mb_per_s_large", "MB/s", "higher")
	add("cluster", "cluster.get_ms_p50_small", "ms", "lower")
	add("cluster", "cluster.get_mb_per_s_large", "MB/s", "higher")
	add("cluster", "cluster.client_wire_s", "s", "lower")
	add("cluster", "cluster.sweep_s", "s", "lower")
	add("cluster", "cluster.sweep_repaired", "count", "lower")
	add("cluster", "cluster.replicas_min", "count", "higher")

	add("node", "node.requests", "count", "lower")
	add("node", "node.put_service_s", "s", "lower")
	add("node", "node.put_service_ms_p50", "ms", "lower")
	add("node", "node.get_service_s", "s", "lower")
	add("node", "node.bytes_in", "B", "lower")
	add("node", "node.bytes_out", "B", "lower")
	add("node", "node.bytes_skew", "ratio", "lower")

	add("runtime", "runtime.allocs_per_blob_put", "count", "lower")
	add("runtime", "runtime.alloc_mb", "MB", "lower")
	add("runtime", "runtime.mallocs", "count", "lower")
	add("runtime", "runtime.gc_pause_ms", "ms", "lower")
	add("runtime", "runtime.peak_heap_mb", "MB", "lower")
	add("trace", "trace.overhead_ratio", "ratio", "lower")
	add("bench", "bench.elapsed_s", "s", "lower")
	add("host", "host.kernel_ms", "ms", "lower")
	add("host", "host.speed", "ratio", "higher")

	for _, class := range queryClasses {
		add("queryserve", "queryserve."+class+"_p50_us", "us", "lower")
		add("queryserve", "queryserve."+class+"_p99_us", "us", "lower")
	}
	for _, class := range queryClasses {
		add("queryserve", "queryserve.service_p50_us."+class, "us", "lower")
	}
	add("queryserve", "queryserve.wire_p50_us", "us", "lower")
	add("queryserve", "queryserve.cache_hit_ratio", "ratio", "higher")
	add("queryserve", "queryserve.cache_evictions", "count", "lower")
	add("queryserve", "queryserve.coalesced", "count", "higher")
	add("queryserve", "queryserve.not_modified", "count", "higher")
	add("queryserve", "queryserve.index_terms", "count", "lower")
	add("loadgen", "loadgen.late_p99_us", "us", "lower")

	add("recast", "recast.submit_ms_p50", "ms", "lower")
	add("recast", "recast.submit_ms_p99", "ms", "lower")
	add("recast", "recast.queue_wait_ms_p50", "ms", "lower")
	add("recast", "recast.queue_wait_ms_p95", "ms", "lower")
	add("recast", "recast.backend_ms_p50", "ms", "lower")
	add("recast", "recast.backend_ms_p95", "ms", "lower")
	add("recast", "recast.admitted", "count", "higher")
	add("recast", "recast.shed", "count", "lower")
	add("recast", "recast.served", "count", "higher")
	add("recast", "recast.dedup_hits", "count", "higher")
	add("recast", "recast.expired", "count", "lower")
	add("recast", "recast.failed", "count", "lower")
	add("recast", "recast.flood_shed_ratio", "ratio", "higher")
	add("recast", "recast.polite_shed", "count", "lower")
	add("recast", "recast.journal_bytes", "B", "lower")
	add("recast", "recast.reopen_s", "s", "lower")

	for _, layer := range chainLayers {
		add("chain", "chain.self_s."+layer, "s", "lower")
	}
	return defs
}

// workloadWhy is the one-line reason each workload exists, as recorded in
// BENCHMARK.json.
var workloadWhy = map[string]string{
	"produce":  "CPU-bound tier production through workflow, eventflow and the checkpoint ledger; storage and serving layers do no work, so a change there must not move it",
	"preserve": "storage- and wire-bound: ingest, verified restore and fixity audit of data sets on a five-node RF-3 fleet, timed as separate phases so a gain for one that costs another shows",
	"query":    "the read tier users feel: a hot set that fits the server's cache, a cold mix that does not, publishes beside reads, and an open-loop rate for latency",
	"recast":   "queue, admission, two fsynced journals and the heavy chain behind one front door: closed-loop capacity, then open-loop overload with a flooding tenant",
	"chain":    "one client, strictly sequential, every layer once: the only workload where a cross-layer change can show, and the source of the where-did-the-time-go table",
}

// RunSeconds is BENCHMARK.json's run_seconds: Scale is seconds over this.
const RunSeconds = 12

// BenchmarkJSON renders the BENCHMARK.json that matches the catalogue, so
// the file at the repository root is generated, not hand-kept.
func BenchmarkJSON() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
	}
	for _, name := range Workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{name, workloadWhy[name]})
	}
	for _, d := range EndToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range PerLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

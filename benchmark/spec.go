package main

import "math"

// The benchmark's catalogue: every metric it prints, by name, with its
// unit and direction. BENCHMARK.json at the root of the repository
// repeats these names (TestManifestMatchesSpec keeps the two in step);
// the bounds live only there.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// Simulated-clock metrics are functions of (seed, size) alone and must
// repeat bit-for-bit on the same code; wall-clock metrics carry noise.
const (
	unitSimS  = "sim_s"
	unitShare = "share"
)

// exact reports whether a metric is computed on the simulated clock or
// by counting, so that two runs with one seed must agree exactly.
func (m metricDef) exact() bool { return m.Unit == unitSimS || m.Unit == unitShare }

// endToEnd lists what a user or operator of the whole system sees.
// Every workload reports every one of them (see README.md for the
// per-workload definitions).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"cpu_s_per_op", "s", "lower"},
	{"mem_inuse_mb", "MB", "lower"},
	{"air_s_per_page", unitSimS, "lower"},
	{"on_air_p50_s", unitSimS, "lower"},
	{"on_air_p99_s", unitSimS, "lower"},
	{"on_air_slo_share", unitShare, "higher"},
	{"ok_share", unitShare, "higher"},
}

// perLayer lists the single-layer metrics of the traced run, named
// layer.metric after this repository's packages. A workload that never
// enters a layer reports 0 for it — that absence is part of the result
// (the receiver layers must read 0 everywhere but page_roundtrip).
var perLayer = []metricDef{
	{"sms.format_parse_ns", "ns", "lower"},
	{"sms.smsc_deliver_ns", "ns", "lower"},
	{"routing.lookup_ns", "ns", "lower"},
	{"admission.submit_ns", "ns", "lower"},
	{"admission.flush_ms", "ms", "lower"},
	{"admission.batches", "count", "lower"},
	{"admission.coalesced_share", unitShare, "higher"},
	{"admission.busy_share", unitShare, "lower"},
	{"admission.peak_pending", "count", "lower"},
	{"server.handle_sms_us", "us", "lower"},
	{"server.render_hit_ns", "ns", "lower"},
	{"server.render_miss_ms", "ms", "lower"},
	{"server.render_misses", "count", "lower"},
	{"server.dequeue_us", "us", "lower"},
	{"server.enqueued", "count", "lower"},
	{"server.requests_per_broadcast", "count", "higher"},
	{"server.peak_queue_pages", "count", "lower"},
	{"webrender.generate_ms", "ms", "lower"},
	{"webrender.raster_ms", "ms", "lower"},
	{"imagecodec.sic_encode_ms", "ms", "lower"},
	{"imagecodec.sic_decode_ms", "ms", "lower"},
	{"imagecodec.bundle_bytes", "B", "lower"},
	{"core.marshal_us", "us", "lower"},
	{"core.unmarshal_us", "us", "lower"},
	{"frame.fec_encode_ms", "ms", "lower"},
	{"frame.fec_decode_ms", "ms", "lower"},
	{"frame.stream_expansion", "ratio", "lower"},
	{"frame.frames_lost_share", unitShare, "lower"},
	{"modem.modulate_ms", "ms", "lower"},
	{"modem.demodulate_ms", "ms", "lower"},
	{"modem.audio_mb_per_page", "MB", "lower"},
	{"fm.link_ms", "ms", "lower"},
	{"artifact.hit_us", "us", "lower"},
	{"artifact.miss_ms", "ms", "lower"},
	{"artifact.audio_computes", "count", "lower"},
	{"artifact.audio_hit_share", unitShare, "higher"},
	{"artifact.coalesced", "count", "higher"},
	{"artifact.evictions", "count", "lower"},
	{"artifact.cache_mb", "MB", "lower"},
	{"artifact.dedup_factor", "ratio", "higher"},
	{"broadcast.schedule_ms", "ms", "lower"},
	{"broadcast.transmissions", "count", "higher"},
	{"client.handle_broadcast_us", "us", "lower"},
	{"client.open_ms", "ms", "lower"},
	{"airtime.sms_uplink_s", unitSimS, "lower"},
	{"airtime.queue_wait_s", unitSimS, "lower"},
	{"airtime.on_air_s", unitSimS, "lower"},
	{"airtime.utilization", unitShare, "higher"},
	{"airtime.oversubscription", "ratio", "lower"},
	{"telemetry.on_air_p99_saturated", "count", "lower"},
	{"runtime.peak_rss_mb", "MB", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.gc_cpu_share", unitShare, "lower"},
	{"harness.trace_overhead_share", unitShare, "lower"},
	{"harness.budget_residual_share", unitShare, "lower"},
}

// sloSeconds is the latency limit of on_air_slo_share: a wanted page
// fully on air within half an hour.
const sloSeconds = 1800.0

// workloadDef names one workload and why it exists. run receives the
// environment of one child process and returns what it measured.
type workloadDef struct {
	Name string
	Why  string
	run  func(*env) (*report, error)
}

var workloads = []workloadDef{
	{
		Name: "page_roundtrip",
		Why:  "one listener, cold pages through every layer from SMS to screen; the only workload with a receiver, which is most of its time",
		run:  runRoundtrip,
	},
	{
		Name: "fleet_rotation",
		Why:  "many towers air one rotation through the byte-capped artifact cache at its default size; modulate, cache and allocation dominate, no receiver",
		run:  runFleet,
	},
	{
		Name: "churn_day",
		Why:  "a carousel replay whose pages keep changing, so render misses (generate, raster, SIC encode) are nearly all the work; no modem, no cache",
		run:  runChurn,
	},
	{
		Name: "sms_storm",
		Why:  "an open-loop SMS storm over a 16-tower grid with every page pre-rendered, so only the request path and the airtime queue are measured",
		run:  runStorm,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sizes is how much work one run does. The constants in sizesFor were
// frozen on the reference box (README.md) so that the timed region
// lasts about --seconds there; the work is a function of --seconds
// alone, never of the clock, so the exact metrics of a seed repeat.
type sizes struct {
	CorpusPages int // pages of the corpus the run may draw from
	WarmUp      bool

	RoundtripPages int

	FleetTowers int
	FleetPages  int

	ChurnHours int

	StormUsers  int
	StormTowers int

	Listeners int // virtual carousel listeners (fleet_rotation, churn_day)
}

func sizesFor(seconds int) sizes {
	s := float64(seconds)
	return sizes{
		CorpusPages: 100,
		WarmUp:      true,
		// at most the band middling draws from: 16 pages, 3 simulated minutes
		// each, stay inside corpus hour 0, the hour their sizes were taken in
		RoundtripPages: clamp(int(math.Round(0.85*s)), 2, middlingBand),
		FleetTowers:    clamp(int(math.Round(0.5*s)), 2, 64),
		FleetPages:     8,
		ChurnHours:     clamp(int(math.Round(0.95*s)), 1, 48),
		StormUsers:     clamp(15800*seconds, 1000, 2_000_000),
		StormTowers:    16,
		Listeners:      20000,
	}
}

func clamp(v, lo, hi int) int { return min(max(v, lo), hi) }

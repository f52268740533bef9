package locman

import (
	"encoding/json"
	"io"

	"repro/internal/telemetry"
)

// ReportSchema versions the JSON document layout produced by NewReport
// (and emitted by pcnsim -json). It increments on any breaking change to
// the Report struct, so downstream consumers can reject documents they do
// not understand.
const ReportSchema = 1

// Report is the schema-stable JSON view of a finished PCN network
// simulation: the final counters and cost averages, the latency
// histograms with their tail quantiles, and the telemetry snapshot
// series (present when NetworkConfig.SnapshotEvery was set). Every field
// has an explicit snake_case JSON tag; the document round-trips through
// encoding/json without loss.
type Report struct {
	// Schema is always ReportSchema.
	Schema int `json:"schema"`
	// Slots and Terminals echo the run shape.
	Slots     int64 `json:"slots"`
	Terminals int   `json:"terminals"`

	// Update-side counters; see NetworkMetrics for field semantics.
	Updates         int64 `json:"updates"`
	LostUpdates     int64 `json:"lost_updates"`
	Retransmissions int64 `json:"retransmissions"`
	Acks            int64 `json:"acks"`
	OutageDeferred  int64 `json:"outage_deferred"`

	// Paging-side counters.
	Calls         int64 `json:"calls"`
	PolledCells   int64 `json:"polled_cells"`
	DroppedCalls  int64 `json:"dropped_calls"`
	RePolls       int64 `json:"re_polls"`
	FallbackCalls int64 `json:"fallback_calls"`
	LostPolls     int64 `json:"lost_polls"`
	LostReplies   int64 `json:"lost_replies"`
	NotFound      int64 `json:"not_found"`

	// Signalling bytes on the wire per message class.
	UpdateBytes int64 `json:"update_bytes"`
	PollBytes   int64 `json:"poll_bytes"`
	ReplyBytes  int64 `json:"reply_bytes"`
	AckBytes    int64 `json:"ack_bytes"`

	// Events counts scheduler events dispatched.
	Events uint64 `json:"events"`

	// Per-slot per-terminal cost averages in the paper's U/V units.
	UpdateCost float64 `json:"update_cost"`
	PagingCost float64 `json:"paging_cost"`
	TotalCost  float64 `json:"total_cost"`

	// Delay summarizes the per-call paging delay (polling cycles) and
	// Recovery the HLR desync→recovery latency (slots).
	Delay    Summary `json:"delay"`
	Recovery Summary `json:"recovery"`

	// DelayHist and RecoveryHist carry the full histogram buckets plus
	// derived tail quantiles; nil when the metrics were hand-built rather
	// than engine-produced.
	DelayHist    *HistReport `json:"delay_hist,omitempty"`
	RecoveryHist *HistReport `json:"recovery_hist,omitempty"`

	// ThresholdSlots[d] counts terminal-slots operated at threshold d.
	ThresholdSlots map[int]int64 `json:"threshold_slots,omitempty"`

	// Snapshots is the telemetry snapshot series; empty when
	// NetworkConfig.SnapshotEvery was zero.
	Snapshots []Frame `json:"snapshots,omitempty"`
}

// HistReport is a latency histogram together with its derived tail
// quantiles, frozen at report time.
type HistReport struct {
	Hist
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

func histReport(h *telemetry.Hist) *HistReport {
	if h == nil {
		return nil
	}
	return &HistReport{Hist: *h.Clone(), P50: h.P50(), P95: h.P95(), P99: h.P99()}
}

// NewReport builds the JSON-able report from a finished run's metrics.
// The metrics are copied; mutating m afterwards does not affect the
// report.
func NewReport(m *NetworkMetrics) *Report {
	r := &Report{
		Schema:    ReportSchema,
		Slots:     m.Slots,
		Terminals: m.Terminals,

		Updates:         m.Updates,
		LostUpdates:     m.LostUpdates,
		Retransmissions: m.Retransmissions,
		Acks:            m.Acks,
		OutageDeferred:  m.OutageDeferred,

		Calls:         m.Calls,
		PolledCells:   m.PolledCells,
		DroppedCalls:  m.DroppedCalls,
		RePolls:       m.RePolls,
		FallbackCalls: m.FallbackCalls,
		LostPolls:     m.LostPolls,
		LostReplies:   m.LostReplies,
		NotFound:      m.NotFound,

		UpdateBytes: m.UpdateBytes,
		PollBytes:   m.PollBytes,
		ReplyBytes:  m.ReplyBytes,
		AckBytes:    m.AckBytes,

		Events: m.Events,

		UpdateCost: m.UpdateCost,
		PagingCost: m.PagingCost,
		TotalCost:  m.TotalCost,

		Delay:    telemetry.Summarize(&m.Delay),
		Recovery: telemetry.Summarize(&m.Recovery),

		DelayHist:    histReport(m.DelayHist),
		RecoveryHist: histReport(m.RecoveryHist),
	}
	if len(m.ThresholdSlots) > 0 {
		r.ThresholdSlots = make(map[int]int64, len(m.ThresholdSlots))
		for d, n := range m.ThresholdSlots {
			r.ThresholdSlots[d] = n
		}
	}
	if len(m.Snapshots) > 0 {
		r.Snapshots = append([]Frame(nil), m.Snapshots...)
	}
	return r
}

// EncodeReport writes r in the report byte format: two-space-indented
// JSON followed by a newline. pcnsim -json prints these bytes and the
// job service stores them, so the two front ends compare with cmp.
func EncodeReport(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

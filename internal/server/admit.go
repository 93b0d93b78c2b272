package server

import (
	"time"

	"sonic/internal/admission"
	"sonic/internal/core"
	"sonic/internal/corpus"
	"sonic/internal/telemetry"
)

// The request path. Every ingress — HandleSMS and PushPopular (and the
// tests' EnqueuePage) — reaches a tower queue through admitBatch, the
// admission sink: one render and one queue entry per (URL, tower,
// effective hour), however many requests ride on it. With admission
// enabled, requests first wait in the admission stage, which coalesces
// identical ones and flushes batches into the sink off the caller's
// goroutine; the caller's ack then carries an estimated ETA built from
// O(1) queue byte accounting plus the running mean bundle size — no
// render on the reply path. With admission off, each request is a batch
// of one flushed at once on the caller's goroutine.

// defaultBundleEstimate seeds the ETA estimate before any batch has
// flushed: the median marshaled bundle of the rendered corpus, which
// reads 146–149 kB (the benchmark's imagecodec.bundle_bytes) on every
// workload, about 160 s of airtime on one frequency.
const defaultBundleEstimate = 147000

// noteBundleBytes feeds the running mean of marshaled bundle sizes.
func (s *Server) noteBundleBytes(n int) {
	s.bundleBytes.Add(int64(n))
	s.bundleCount.Add(1)
}

// meanBundleBytes returns the running mean marshaled bundle size.
func (s *Server) meanBundleBytes() int {
	c := s.bundleCount.Load()
	if c == 0 {
		return defaultBundleEstimate
	}
	return int(s.bundleBytes.Load() / c)
}

// estimateETA approximates time-to-broadcast for a page admitted on tx:
// airtime of the bytes already queued plus one mean-sized bundle,
// divided across the station's parallel frequencies.
func (s *Server) estimateETA(tx Transmitter) time.Duration {
	sh := s.shardFor(tx.ID)
	sh.mu.Lock()
	pending := 0
	if tq := sh.queues[tx.ID]; tq != nil {
		pending = tq.bytes
	}
	sh.mu.Unlock()
	sec := s.pipeline.AirtimeSeconds(pending+s.meanBundleBytes()) / float64(tx.FrequencyCount())
	return time.Duration(sec * float64(time.Second))
}

// admitTraced is the front half of every request: route the tower,
// resolve the content epoch, then either submit to the admission stage
// (reply with an estimate; the batch flushes later) or, with admission
// off, flush a batch of one through the sink right here. The trace is
// stamped admitted on accept and aborted on reject. A saturated shard
// returns a *admission.SaturatedError (errors.Is admission.ErrSaturated)
// with a retry-after hint.
func (s *Server) admitTraced(url string, lat, lon float64, now time.Time, tr *telemetry.Trace) (time.Duration, error) {
	tx, ok := s.transmitterFor(lat, lon)
	if !ok {
		s.mNoCoverage.Inc()
		tr.Abort(now, "no coverage")
		return 0, ErrNoCoverage
	}
	eff := corpus.EffectiveHour(s.refFor(url), s.hourAt(now))
	if s.admit == nil {
		tr.StampAt(telemetry.StageAdmitted, now)
		b := admission.Batch{URL: url, Tower: tx.ID, EffHour: eff, Now: now, Count: 1}
		if tr != nil {
			b.Traces = []*telemetry.Trace{tr}
		}
		return s.admitBatch(b)
	}
	if _, err := s.admit.Submit(admission.Request{
		URL: url, Tower: tx.ID, EffHour: eff, Now: now, Trace: tr,
	}); err != nil {
		tr.Abort(now, "admission saturated")
		return 0, err
	}
	tr.StampAt(telemetry.StageAdmitted, now)
	return s.estimateETA(tx), nil
}

// admitBatch is the admission sink, the only code that puts a page on a
// tower queue: one render + one queue entry for every batch. It runs on
// an admission flush worker, a Flush caller, or (admission off, and
// PushPopular) the requesting goroutine, with no shard lock held during
// the render. If the page is already waiting on the tower at the same
// content epoch, the batch rides the queued entry — the second stage of
// whole-request coalescing — instead of scheduling a duplicate
// broadcast. It returns the time until the page has been fully
// broadcast: airtime of everything queued ahead plus the page itself
// (for a rider, of the queue as it stands), divided across the
// station's parallel frequencies.
func (s *Server) admitBatch(b admission.Batch) (time.Duration, error) {
	tx, ok := s.topo.Load().byID[b.Tower]
	if !ok {
		for _, tr := range b.Traces {
			tr.Abort(b.Now, "transmitter removed")
		}
		return 0, ErrNoCoverage
	}
	for _, tr := range b.Traces {
		tr.StampAt(telemetry.StageRenderStart, b.Now)
	}
	renderT0 := time.Now()
	bundle, err := s.renderAt(b.URL, s.refFor(b.URL), s.hourAt(b.Now), b.EffHour)
	if err != nil {
		for _, tr := range b.Traces {
			tr.Abort(b.Now, "render: "+err.Error())
		}
		return 0, err
	}
	// Wall-clock render cost projected into the batch's (possibly
	// simulated) clock domain, so a simulated timeline still shows the
	// real render cost.
	rendered := b.Now.Add(time.Since(renderT0))
	for _, tr := range b.Traces {
		tr.StampAt(telemetry.StageRenderDone, rendered)
	}
	blobLen := len(core.MarshalBundle(bundle)) // the wire form built at render: no copy
	s.noteBundleBytes(blobLen)
	pageID := s.pageIDFor(b.URL)

	sh := s.shardFor(tx.ID)
	sh.mu.Lock()
	tq := sh.queue(tx.ID)
	airBytes := tq.bytes
	if qp := tq.pending[b.URL]; qp != nil && qp.EffHour == b.EffHour {
		qp.Traces = append(qp.Traces, b.Traces...)
	} else {
		tq.push(&queuedPage{
			URL:      b.URL,
			PageID:   pageID,
			Bundle:   bundle,
			Bytes:    blobLen,
			EffHour:  b.EffHour,
			Enqueued: b.Now,
			Traces:   b.Traces,
		})
		airBytes += blobLen
		s.mEnqueued.Inc()
	}
	if b.Count > 0 {
		sh.bumpDemand(tx.ID, b.URL, float64(b.Count))
	}
	s.recordQueueDepth(sh, tx.ID, b.Now)
	sh.mu.Unlock()
	for _, tr := range b.Traces {
		tr.StampAt(telemetry.StageEnqueued, rendered)
	}
	eta := s.pipeline.AirtimeSeconds(airBytes) / float64(tx.FrequencyCount())
	return time.Duration(eta * float64(time.Second)), nil
}

// FlushAdmissionConcurrent synchronously drains the admission stage,
// the shards spread over up to workers goroutines (1: the caller's
// goroutine alone), so the sink (render + enqueue, safe under
// concurrent callers) can use multiple cores. No-op with admission off.
//
// FlushAdmissionConcurrent and AdmissionPending are the seam for a
// caller that owns a simulated clock, not operator API: admission has
// no wall-clock flusher, so between MaxBatch kicks such a caller moves
// batches at the simulated instants it chooses. Only tests and the
// benchmark harness call them.
func (s *Server) FlushAdmissionConcurrent(workers int) {
	s.admit.FlushConcurrent(workers)
}

// AdmissionPending reports how many accepted requests await a batch
// flush (0 with admission off). Simulated-clock seam; see
// FlushAdmissionConcurrent.
func (s *Server) AdmissionPending() int {
	if s.admit == nil {
		return 0
	}
	return s.admit.Pending()
}

// Close releases the admission flush workers, draining anything still
// pending. Idempotent, and a no-op with admission off.
func (s *Server) Close() {
	s.admit.Close()
}

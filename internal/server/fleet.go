package server

import (
	"time"

	"sonic/internal/artifact"
	"sonic/internal/core"
	"sonic/internal/corpus"
)

// Fleet audio path: every transmitter dequeue resolves its downstream
// artifacts — marshaled blob, FEC-framed stream, the PCM burst —
// through the server's content-addressed artifact chain instead of
// re-encoding per tower. The chain is keyed by (URL, effective hour,
// page ID, pipeline digest), so 64 towers airing the same page at the
// same content epoch modulate it exactly once fleet-wide, and the
// output is byte-identical to calling the pipeline directly (pinned by
// TestPageAudioMatchesPipeline).

// ArtifactStats exposes the fleet cache accounting (hits, misses,
// coalesced waiters per stage, byte/entry footprint, evictions).
func (s *Server) ArtifactStats() artifact.Stats { return s.chain.Stats() }

// PageAudio renders a URL at the given simulation time and returns the
// float view of its PCM burst from the fleet artifact chain (a fresh
// slice; the PCM itself is shared across towers).
func (s *Server) PageAudio(url string, now time.Time) ([]float64, error) {
	ref, hour := s.refFor(url), s.hourAt(now)
	eff := corpus.EffectiveHour(ref, hour)
	b, err := s.renderAt(url, ref, hour, eff)
	if err != nil {
		return nil, err
	}
	k := s.chain.Key(url, eff, s.pageIDFor(url))
	return s.chain.Audio(k, func() (core.Bundle, error) { return b, nil })
}

// DequeueAudioAt pops the next page queued on a transmitter and
// resolves its burst through the artifact chain, which modulates it once
// fleet-wide and keeps it as 16-bit PCM; audio is a fresh float view of
// that PCM, equal to EncodePageAudio of the queued bundle. Lifecycle
// traces on the page are stamped on-air exactly as DequeuePageAt stamps
// them. ok is false on an empty queue.
func (s *Server) DequeueAudioAt(transmitterID string, at time.Time) (url string, audio []float64, ok bool, err error) {
	head := s.dequeueHead(transmitterID, at)
	if head == nil {
		return "", nil, false, nil
	}
	k := s.chain.Key(head.URL, head.EffHour, head.PageID)
	audio, err = s.chain.Audio(k, func() (core.Bundle, error) { return head.Bundle, nil })
	return head.URL, audio, true, err
}

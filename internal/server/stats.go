package server

import (
	"net/http"

	"repro/internal/oracle"
)

// This file implements GET /v1/stats, the build plane's one-look
// observability endpoint: semaphore occupancy, queued work, per-status
// build counts, and the oracle cache counters aggregated across every
// ready build — the companion to per-build progress reporting.

// statsResponse is the wire form of GET /v1/stats.
type statsResponse struct {
	// Graphs counts registered graphs.
	Graphs int `json:"graphs"`
	// Builds counts builds by status (absent statuses are omitted).
	Builds map[string]int `json:"builds"`
	// BuildSlots describes the build semaphore: InUse slots are occupied
	// by running builds, Capacity is MaxConcurrentBuilds, and Queued
	// counts builds waiting for a slot.
	BuildSlots buildSlotsInfo `json:"buildSlots"`
	// Cache sums CacheStats over every ready build's oracle set. Omitted
	// when no build is ready.
	Cache *oracle.CacheStats `json:"cache,omitempty"`
}

type buildSlotsInfo struct {
	InUse    int `json:"inUse"`
	Capacity int `json:"capacity"`
	Queued   int `json:"queued"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{Builds: make(map[string]int)}
	var ready []*oracle.OracleSet
	s.mu.RLock()
	resp.Graphs = len(s.graphs)
	for _, g := range s.graphs {
		for _, be := range g.builds {
			resp.Builds[be.status]++
			if be.status == StatusReady {
				ready = append(ready, be.set)
			}
		}
	}
	s.mu.RUnlock()
	// Channel length is safe to read without the registry lock; it is the
	// authoritative occupancy (builds holding a slot right now).
	resp.BuildSlots = buildSlotsInfo{
		InUse:    len(s.buildSem),
		Capacity: cap(s.buildSem),
		Queued:   resp.Builds[StatusQueued],
	}
	if len(ready) > 0 {
		cs := oracle.TotalCacheStats(ready)
		resp.Cache = &cs
	}
	writeJSON(w, http.StatusOK, resp)
}

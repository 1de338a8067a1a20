package metrics

import (
	"encoding/json"
	"net/http"
)

// HTTP exposition helpers shared by the wall-clock hosts (livenet,
// cmd/meshgw): a /metrics handler in Prometheus text format and a
// /healthz handler in JSON. Both pull fresh state per request through
// caller-supplied functions, so the hosting runtime decides how node
// registries are aggregated without this package knowing about nodes.

// Handler serves the registry returned by source in Prometheus text
// format. source is called on every request and must be safe for
// concurrent use (Registry instruments already are).
func Handler(source func() *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg := source()
		if reg == nil {
			return
		}
		_ = reg.WritePrometheus(w)
	})
}

// HealthHandler serves the value returned by status as JSON with a 200,
// the conventional liveness probe. status must be safe for concurrent
// use.
func HealthHandler(status func() map[string]any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(status())
	})
}

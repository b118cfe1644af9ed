package telemetry_test

import (
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"

	"dynaspam/internal/telemetry"
)

// ExampleServer_AddExtra contributes a subsystem's own metric family to
// the /metrics page without the telemetry package knowing about it.
func ExampleServer_AddExtra() {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := telemetry.NewServer("example", log)
	srv.AddExtra(func() []telemetry.ExtraFamily {
		return []telemetry.ExtraFamily{{
			Name: "dynaspam_jobs",
			Help: "Jobs by lifecycle state.",
			Type: "gauge",
			Samples: []telemetry.ExtraSample{
				{Labels: []telemetry.Label{{Key: "state", Value: "queued"}}, Value: 3},
			},
		}}
	})

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "dynaspam_jobs{") {
			fmt.Println(line)
		}
	}
	// Output:
	// dynaspam_jobs{state="queued"} 3
}

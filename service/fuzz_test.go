package service

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzDecodeCampaignRequest drives the untrusted submit path — strict
// decode, Validate's probe build, grid sizing — with arbitrary bodies.
// No input may panic it, and none may make it allocate 4 MiB or more:
// everything here runs in the HTTP handler before quota admission.
//
//	go test ./service -run '^$' -fuzz FuzzDecodeCampaignRequest -fuzztime 30s
func FuzzDecodeCampaignRequest(f *testing.F) {
	for _, seed := range []string{
		`{"schema_version":1,"scenario":"udpflood"}`,
		`{"schema_version":1,"scenario":"udpflood","params":{"telemetry.rate":0}}`,
		`{"schema_version":1,"scenario":"mav-replay","params":{"fault.magnitude":1e18}}`,
		`{"schema_version":1,"scenario":"mav-replay","runs":2,"sweeps":[{"key":"fault.magnitude","values":[64,1e7]}]}`,
		`{"schema_version":1,"scenario":"memdos","duration_s":2.5,"params":{"memguard.budget":1e6},"sweeps":[{"key":"attack.rate","values":[1e9,4e9]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		req, err := DecodeCampaignRequest(bytes.NewReader(body))
		if err == nil {
			req.TotalRuns()
		}
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b >= 4<<20 {
			t.Fatalf("decoding %d-byte body allocated %d B, want < 4 MiB", len(body), b)
		}
	})
}

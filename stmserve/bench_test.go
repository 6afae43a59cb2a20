package stmserve

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	stm "github.com/stm-go/stm"
)

// BenchmarkSessionFeed times Session.Feed over io.Discard on a 4096-key
// keyspace: no sockets, so one op is one request parsed, planned, committed
// and answered. Rows: a 64-command GET/SET pipeline (one batch commit) and
// an 8-group MULTI/EXEC transfer request. Requests cycle through a fixed
// pre-rendered set so keys vary without the benchmark allocating.
func BenchmarkSessionFeed(b *testing.B) {
	const keys = 4096
	rows := []struct {
		name string
		req  func(r *rand.Rand) string
	}{
		{"pipeline64", func(r *rand.Rand) string {
			var sb strings.Builder
			for i := 0; i < 64; i++ {
				k := r.Intn(keys)
				if i%2 == 0 {
					fmt.Fprintf(&sb, "GET k%06d\r\n", k)
				} else {
					fmt.Fprintf(&sb, "SET k%06d %d:value-bytes\r\n", k, k)
				}
			}
			return sb.String()
		}},
		{"transfer8", func(r *rand.Rand) string {
			var sb strings.Builder
			for i := 0; i < 8; i++ {
				fmt.Fprintf(&sb, "MULTI\r\nINCRBY k%06d -1\r\nINCRBY k%06d 1\r\nEXEC\r\n", r.Intn(keys), r.Intn(keys))
			}
			return sb.String()
		}},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			srv, err := New(Config{Engine: stm.ST, KeyspaceHint: keys})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			s := srv.NewSession(io.Discard)
			var load strings.Builder
			for k := 0; k < keys; k++ {
				fmt.Fprintf(&load, "SET k%06d 1000\r\n", k)
			}
			if err := s.Feed([]byte(load.String())); err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(1))
			reqs := make([][]byte, 64)
			for i := range reqs {
				reqs[i] = []byte(row.req(r))
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if err := s.Feed(reqs[i%len(reqs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeGracefulShutdown: Metrics.Serve answers /metrics at the
// address it reports, fails cleanly on an address already in use, and
// its shutdown closes the listener once — repeat calls return the same
// result without blocking.
func TestServeGracefulShutdown(t *testing.T) {
	m := New()
	m.Counter("x").Add(7)
	addr, shutdown, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Serve(addr); err == nil {
		t.Fatal("a second Serve on a bound address succeeded")
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"x": 7`) {
		t.Fatalf("metrics body lacks counter: %s", body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if err := shutdown(ctx); err != nil {
			t.Fatalf("shutdown call %d: %v", i+1, err)
		}
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics", addr)); err == nil {
		t.Fatal("endpoint still serving after shutdown")
	}
}

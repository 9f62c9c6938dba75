// Package conc exercises the concurrency analyzer.
package conc

import (
	"net/http"
	"sync"
	"time"
)

// Detached launches and never joins.
func Detached(work func()) {
	go work() // flagged: no join in Detached
}

// Joined launches under a WaitGroup and waits.
func Joined(items []int, f func(int)) {
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			f(v)
		}(it)
	}
	wg.Wait()
}

// ChannelJoined drains a result channel instead of a WaitGroup.
func ChannelJoined(n int, f func() int) int {
	ch := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() { ch <- f() }()
	}
	total := 0
	for i := 0; i < n; i++ {
		total += <-ch
	}
	return total
}

// BareServer builds an http.Server that accepts header-less connections
// forever.
func BareServer(addr string) *http.Server {
	return &http.Server{Addr: addr} // flagged: no ReadHeaderTimeout
}

// GuardedServer bounds the header read and must pass.
func GuardedServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		ReadHeaderTimeout: 5 * time.Second,
	}
}

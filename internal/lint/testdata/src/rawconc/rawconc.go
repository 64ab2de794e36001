// Fixture for the rawconc analyzer: raw goroutines, channels and sync
// primitives are confined to internal/parallel and internal/stats. The
// tests also load this file under those paths to prove the allowlist
// silences every diagnostic.
package rawconc

import "sync" // want `import of "sync"`

var mu sync.Mutex

func spawn() int {
	ch := make(chan int) // want `chan type`
	go send(ch)          // want `go statement`
	select {}            // want `select statement`
}

func send(ch chan int) { // want `chan type`
	ch <- 1 // want `channel send`
}

func recv(ch <-chan int) int { // want `chan type`
	return <-ch // want `channel receive`
}

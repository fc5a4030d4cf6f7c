package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// expvarName is the name under which the registry snapshot is published
// in the process-wide expvar namespace (visible at /debug/vars).
const expvarName = "ocd.metrics"

var (
	expvarMu  sync.Mutex
	expvarReg *Registry
)

// publishExpvar points the process-wide expvar publication at reg. The
// publication is installed once (expvar.Publish panics on duplicates)
// and indirects through expvarReg so later debug servers can rebind it.
func publishExpvar(reg *Registry) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvarReg == nil && expvar.Get(expvarName) == nil {
		expvar.Publish(expvarName, expvar.Func(func() any {
			expvarMu.Lock()
			r := expvarReg
			expvarMu.Unlock()
			return r.Snapshot()
		}))
	}
	expvarReg = reg
}

// ServeDebug starts an HTTP debug server on addr for long discovery
// runs, serving:
//
//	/debug/pprof/...   net/http/pprof profiles
//	/debug/vars        expvar, including the "ocd.metrics" snapshot
//	/metrics           the registry snapshot as indented JSON
//
// It returns the bound address (useful with ":0") and a shutdown
// function that stops the listener. Errors binding the address are
// returned immediately; serve errors after startup are dropped (the
// debug server is an aid, never a reason to kill a run).
func ServeDebug(addr string, reg *Registry) (string, func(), error) {
	publishExpvar(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		WriteMetricsHTTP(w, r, reg)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) // returns ErrServerClosed on shutdown
	stop := func() {
		srv.Close() // best-effort teardown
		// Unbind the expvar publication if it still points at this
		// server's registry, so /debug/vars on a later ServeDebug (or
		// a leftover expvar handler) never serves the stopped server's
		// stale snapshot. expvarReg is nil-safe: Snapshot on nil
		// returns the zero value.
		expvarMu.Lock()
		if expvarReg == reg {
			expvarReg = nil
		}
		expvarMu.Unlock()
	}
	return ln.Addr().String(), stop, nil
}

package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/histstore"
	"repro/internal/service"
	"repro/internal/workload"
)

// templates is qwaitd's default template set: the generic set over the
// characteristics SWF traces carry.
func templates() []core.Template {
	return core.DefaultTemplates(
		workload.MaskOf(workload.CharUser, workload.CharExec, workload.CharQueue), true)
}

// daemon is the system under test wired exactly as `qwaitd -data DIR`
// wires it: a durable history store (no fsync), a store-backed predictor
// with qwaitd's default templates, metrics on and tracing off.
type daemon struct {
	dir       string
	store     *histstore.Store
	pred      *core.Predictor
	srv       *service.Server
	storeErrs atomic.Int64

	url  string
	stop context.CancelFunc
	done chan error
}

func openDaemon(dir string, nodes int) (*daemon, error) {
	st, err := histstore.Open(dir)
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, store: st}
	d.pred = core.New(templates(), core.WithStore(st),
		core.WithStoreErrorHandler(func(error) { d.storeErrs.Add(1) }))
	d.srv = service.New(d.pred, nodes)
	d.srv.SetStore(st)
	return d, nil
}

// startDaemon opens a daemon with its store in dir, warms it and serves
// it: one set-up.
func startDaemon(dir string, nodes int, warm []*workload.Job) (*daemon, error) {
	d, err := openDaemon(dir, nodes)
	if err != nil {
		return nil, err
	}
	d.warm(warm)
	if err := d.listen(); err != nil {
		_ = d.close() // the listen error is the one worth reporting
		return nil, err
	}
	return d, nil
}

// warm observes jobs directly, as qwaitd's -warm does at boot.
func (d *daemon) warm(jobs []*workload.Job) {
	for _, j := range jobs {
		d.pred.Observe(j)
	}
}

// listen serves the daemon on a loopback port until close.
func (d *daemon) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, stop := context.WithCancel(context.Background())
	d.stop, d.done = stop, make(chan error, 1)
	d.url = "http://" + ln.Addr().String()
	go func() { d.done <- d.srv.ServeListener(ctx, ln) }()
	return nil
}

// close stops serving, waits for the server to drain, closes the store
// and deletes its directory.
func (d *daemon) close() error {
	var err error
	if d.stop != nil {
		d.stop()
		err = <-d.done
		d.stop = nil
	}
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// visible copies what a scheduler knows about a job: its characteristics,
// size, submission time and limit, plus its start time once running —
// never its actual run time unless it has completed (withRunTime).
func visible(j *workload.Job, withStart, withRunTime bool) *workload.Job {
	c := &workload.Job{
		ID: j.ID, Type: j.Type, Queue: j.Queue, Class: j.Class, User: j.User,
		Script: j.Script, Executable: j.Executable, Arguments: j.Arguments,
		NetAdaptor: j.NetAdaptor, Nodes: j.Nodes, SubmitTime: j.SubmitTime,
		MaxRunTime: j.MaxRunTime,
	}
	if withStart {
		c.StartTime = j.StartTime
	}
	if withRunTime {
		c.RunTime = j.RunTime
	}
	return c
}

// jobJSON is the service's wire form of a job.
func jobJSON(j *workload.Job) service.JobJSON {
	return service.JobJSON{
		ID: j.ID, Type: j.Type, Queue: j.Queue, Class: j.Class, User: j.User,
		Script: j.Script, Executable: j.Executable, Arguments: j.Arguments,
		NetAdaptor: j.NetAdaptor, Nodes: j.Nodes, SubmitTime: j.SubmitTime,
		RunTime: j.RunTime, MaxRunTime: j.MaxRunTime, StartTime: j.StartTime,
	}
}

func mustJSON(v interface{}) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built values are encoded; failure is a bug
	}
	return data
}

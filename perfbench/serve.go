package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	api "microtools/api/v1"
	"microtools/internal/campaign"
	"microtools/internal/launcher"
	"microtools/internal/service"
	"microtools/internal/stats"
	"microtools/serviceclient"
)

// server is an in-process microserved: the daemon on an ephemeral
// loopback port, its shared JSONL cache, and one client.
type server struct {
	daemon    *service.Daemon
	cache     *campaign.Cache
	cachePath string // set when the server created the cache
	transport *http.Transport
	client    *serviceclient.Client
}

// startServer starts a daemon over cache (a fresh one in dir when nil)
// that runs one job at a time.
func startServer(ctx context.Context, st *study, dir string, cache *campaign.Cache) (*server, error) {
	s := &server{cache: cache}
	if cache == nil {
		c, path, err := freshCache(dir)
		if err != nil {
			return nil, err
		}
		s.cache, s.cachePath = c, path
	}
	d, err := service.New(ctx, service.Options{MaxConcurrentJobs: 1, Cache: s.cache, Launch: st.launch})
	if err != nil {
		return nil, errors.Join(err, s.closeCache())
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, d.Close(), s.closeCache())
	}
	s.daemon = d
	s.transport = &http.Transport{}
	s.client = &serviceclient.Client{Base: "http://" + addr, HTTP: &http.Client{Transport: s.transport}}
	return s, nil
}

// close drains and stops the daemon and releases a cache the server
// created.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.daemon.Drain(ctx)
	s.transport.CloseIdleConnections()
	return errors.Join(err, s.daemon.CloseHTTP(), s.daemon.Close(), s.closeCache())
}

func (s *server) closeCache() error {
	if s.cachePath == "" {
		return nil
	}
	return errors.Join(s.cache.Close(), os.Remove(s.cachePath))
}

// jobTimes is the client's view of one job's path through the service.
type jobTimes struct {
	submit, result time.Duration
	queueMS, runMS int64 // from the job's status stamps
	events         int
	resultBytes    int
}

// request is the job a service operation submits for the study.
func (st *study) request(workers int) api.JobRequest {
	return api.JobRequest{
		Tenant:      "perfbench",
		Spec:        string(st.spec),
		Seed:        st.gen.Seed,
		Machine:     st.launch.MachineName,
		ArrayBytes:  int(st.launch.ArrayBytes),
		OuterReps:   st.launch.OuterReps,
		InnerReps:   st.launch.InnerReps,
		Workers:     workers,
		CheckBounds: st.w.checkBounds,
	}
}

// job is one service operation, a closed-loop client turn: Submit, follow
// the SSE stream to its end, fetch the Result, then rank and encode the
// payload as the submit command does. It returns the outcome, with the
// job's launch count, and the campaign payload's bytes.
func (s *server) job(ctx context.Context, req api.JobRequest, tm *jobTimes) (*outcome, []byte, error) {
	t := time.Now()
	status, err := s.client.Submit(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	tm.submit += time.Since(t)

	final := status
	err = s.client.Stream(ctx, status.ID, func(ev api.VariantEvent) error {
		tm.events++
		final = ev.Status
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if final.State != api.StateDone {
		return nil, nil, fmt.Errorf("job %s ended %s", status.ID, final.State)
	}

	t = time.Now()
	res, err := s.client.Result(ctx, status.ID)
	tm.result += time.Since(t)
	if err != nil {
		return nil, nil, err
	}
	if res.Campaign == nil || res.Serving == nil {
		return nil, nil, fmt.Errorf("job %s: result without campaign payload", status.ID)
	}
	payload, err := json.Marshal(res.Campaign)
	if err != nil {
		return nil, nil, err
	}
	tm.resultBytes += len(payload)
	tm.queueMS += res.Job.StartedUnixMS - res.Job.SubmittedUnixMS
	tm.runMS += res.Job.FinishedUnixMS - res.Job.StartedUnixMS

	ms := make([]*launcher.Measurement, 0, len(res.Campaign.Variants))
	for _, vr := range res.Campaign.Variants {
		if vr.Error != "" {
			return nil, nil, fmt.Errorf("job %s: variant %s: %s", status.ID, vr.Name, vr.Error)
		}
		unit, err := launcher.ParseTimeUnit(vr.Unit)
		if err != nil {
			return nil, nil, err
		}
		ms = append(ms, &launcher.Measurement{
			Kernel:          vr.Name,
			Value:           vr.Value,
			Unit:            unit,
			ValuePerElement: vr.ValuePerElement,
			Iterations:      uint64(vr.Iterations),
			StaticBound:     vr.StaticBoundValue,
			Stability: stats.Stability{
				N: vr.Stability.N, Mean: vr.Stability.Mean,
				CV: vr.Stability.CV, RCIW: vr.Stability.RCIW,
			},
		})
	}
	out, err := finish(ms)
	if err != nil {
		return nil, nil, err
	}
	out.launches = res.Serving.Launches
	return out, payload, nil
}

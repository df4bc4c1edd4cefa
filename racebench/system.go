package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/server"
)

// system is an in-process raced deployment on loopback: one server, or a
// coordinator fronting workers. Everything listens on 127.0.0.1:0 and
// close tears all of it down, so back-to-back set-ups share nothing.
type system struct {
	url     string // what clients dial
	workers []*node
	coord   *fleet.Coordinator
	front   *listener // the coordinator's listener, nil single-node
	// transports whose idle keep-alive connections close tears down.
	transports []*http.Transport
	client     *http.Client
	closeOnce  sync.Once
	closeErr   error
}

type node struct {
	srv   *server.Server
	lis   *listener
	agent *fleet.Agent
}

// listener is one HTTP server on an ephemeral loopback port.
type listener struct {
	url  string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close stops accepting, drops open connections and waits for Serve to
// return.
func (l *listener) close() error {
	err := l.hs.Close()
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// transport returns a fresh keep-alive transport that close tears down.
func (s *system) transport() *http.Transport {
	t := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     30 * time.Second,
	}
	s.transports = append(s.transports, t)
	return t
}

// httpClient builds a client on its own transport, timed when rec is set.
func (s *system) httpClient(rec *recorder, kind spanKind) *http.Client {
	t := s.transport()
	if rec == nil {
		return &http.Client{Transport: t}
	}
	return &http.Client{Transport: &transport{r: rec, kind: kind, base: t}}
}

// systemConfig selects the deployment.
type systemConfig struct {
	workers   int           // 0: a single server, no coordinator
	pullEvery time.Duration // coordinator checkpoint-pull period
}

// startSystem brings the deployment up and returns once it is ready: a
// fleet is ready when GET /fleet reports every worker healthy. With rec,
// every handler and outbound transport records spans while rec is on.
func startSystem(ctx context.Context, cfg systemConfig, rec *recorder) (sys *system, err error) {
	s := &system{}
	defer func() {
		if err != nil {
			s.close(context.Background())
		}
	}()
	wrap := func(kind spanKind, h http.Handler) http.Handler {
		if rec == nil {
			return h
		}
		return rec.handler(kind, h)
	}
	s.client = s.httpClient(rec, kindClientRT)
	if cfg.workers == 0 {
		srv := server.New(server.Config{})
		n := &node{srv: srv}
		s.workers = append(s.workers, n)
		if n.lis, err = listen(wrap(kindWorkerH, srv.Handler())); err != nil {
			return nil, err
		}
		s.url = n.lis.url
		return s, s.waitHealthy(ctx, n.lis.url+"/healthz", -1)
	}

	s.coord = fleet.NewCoordinator(fleet.CoordinatorConfig{
		PullEvery:  cfg.pullEvery,
		HTTPClient: s.httpClient(rec, kindFwdRT),
	})
	if s.front, err = listen(wrap(kindCoordH, s.coord.Handler())); err != nil {
		return nil, err
	}
	s.url = s.front.url
	for i := 0; i < cfg.workers; i++ {
		name := fmt.Sprintf("w%d", i)
		srv := server.New(server.Config{Name: name})
		n := &node{srv: srv}
		s.workers = append(s.workers, n)
		if n.lis, err = listen(wrap(kindWorkerH, srv.Handler())); err != nil {
			return nil, err
		}
		n.agent = fleet.StartAgent(fleet.AgentConfig{
			Coordinator: s.front.url,
			Advertise:   n.lis.url,
			Name:        name,
			HTTPClient:  &http.Client{Transport: s.transport(), Timeout: 5 * time.Second},
			Load: func() fleet.WorkerLoad {
				st := srv.Stats()
				return fleet.WorkerLoad{Sessions: st.Sessions, StateBytes: st.StateBytes, QueueDepth: st.QueueDepth}
			},
			Sessions:  srv.SessionIDs,
			Abort:     srv.AbortSession,
			Epoch:     srv.CoordinatorEpoch,
			NoteEpoch: srv.NoteCoordinatorEpoch,
		})
	}
	return s, s.waitHealthy(ctx, s.front.url+"/fleet", cfg.workers)
}

// waitHealthy polls url until it answers 200 and, for a fleet (want >= 0),
// reports want healthy workers. It never sleeps longer than 2ms at a time.
func (s *system) waitHealthy(ctx context.Context, url string, want int) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		ok, err := s.probe(ctx, url, want)
		if ok {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s to report ready: %v (last error: %v)", url, ctx.Err(), err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (s *system) probe(ctx context.Context, url string, want int) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %s", resp.Status)
	}
	if want < 0 {
		return true, nil
	}
	var st struct {
		Healthy int `json:"healthy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return false, err
	}
	return st.Healthy == want, nil
}

// close stops agents, then the coordinator, then the workers (finalizing
// any open session), and drops every idle connection. Later calls return
// the first call's error.
func (s *system) close(ctx context.Context) error {
	s.closeOnce.Do(func() { s.closeErr = s.shutdown(ctx) })
	return s.closeErr
}

func (s *system) shutdown(ctx context.Context) error {
	var errs []error
	for _, n := range s.workers {
		if n.agent != nil {
			n.agent.Stop()
		}
	}
	if s.front != nil {
		errs = append(errs, s.front.close())
	}
	if s.coord != nil {
		errs = append(errs, s.coord.Close(ctx))
	}
	for _, n := range s.workers {
		if n.lis != nil {
			errs = append(errs, n.lis.close())
		}
		errs = append(errs, n.srv.Close(ctx))
	}
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

// scrape fetches and parses one /metrics exposition.
func (s *system) scrape(ctx context.Context, url string) ([]*obs.ParsedFamily, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	return obs.ParseExposition(raw)
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval. Spans of one run share Run (the sprintd run
// id); Parent links a span to the span that caused it. A nil tracer
// records nothing, so untraced runs pay one nil check per boundary.
type span struct {
	Run    string             `json:"run"`
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_ms"` // since the tracer's epoch
	End    float64            `json:"end_ms"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until write.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its id (0 on a nil tracer).
func (t *tracer) add(run, name string, parent int, start, end time.Time, attrs map[string]float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Run: run, ID: id, Parent: parent, Name: name,
		Start: ms(start.Sub(t.epoch)), End: ms(end.Sub(t.epoch)), Attrs: attrs,
	})
	return id
}

// write stores the spans as JSONL in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

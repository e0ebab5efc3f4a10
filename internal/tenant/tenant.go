// Package tenant is cordobad's multi-tenant identity layer: a registry of
// API keys loaded from a static file, per-tenant fair-share weights, job
// quotas, and request-rate token buckets.
//
// The registry has two modes. Open mode (no key file) serves every request
// as one unlimited anonymous tenant — byte-identical to the single-tenant
// daemon. Enforced mode (a key file) authenticates requests by API key,
// optionally still admitting anonymous callers under their own limits.
// Quota *enforcement* lives with the resources being guarded: the request
// token bucket here, the queue and grid-point caps in internal/job, which
// receives each tenant's limits at submission.
package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// AnonymousName is the display name of the anonymous tenant. It is reserved:
// a key file may configure the anonymous tenant's limits but cannot claim
// the name for a keyed tenant.
const AnonymousName = "anonymous"

// ErrUnauthorized is returned by Authenticate for missing or unknown API
// keys when the registry is enforced; callers translate it to 401.
var ErrUnauthorized = errors.New("tenant: unauthorized")

// Tenant is one authenticated principal: identity, fair-share weight, and
// limits. Zero limits are unlimited.
type Tenant struct {
	Name string
	// Weight is the fair-share weight; the scheduler dequeues tenants in
	// proportion to it. Defaults to 1.
	Weight float64
	// MaxQueuedJobs caps jobs waiting in the queue; MaxGridPoints caps the
	// sum of grid points across queued + running jobs.
	MaxQueuedJobs int
	MaxGridPoints int64
	// RatePerSec and Burst shape the request token bucket; RatePerSec 0
	// disables rate limiting.
	RatePerSec float64
	Burst      int

	anonymous bool

	// Token-bucket state, guarded by mu: the balance as of last.
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// OwnerName is the name jobs are recorded under: empty for the anonymous
// tenant (preserving the single-tenant wire format), the tenant name
// otherwise.
func (t *Tenant) OwnerName() string {
	if t.anonymous {
		return ""
	}
	return t.Name
}

// Allow takes one request token at time now. When the bucket is empty it
// reports false with the delay until a token accrues — the Retry-After
// hint. A zero RatePerSec always allows.
func (t *Tenant) Allow(now time.Time) (bool, time.Duration) {
	if t.RatePerSec <= 0 {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.refillLocked(now)
	if t.tokens >= 1 {
		t.tokens--
		return true, 0
	}
	need := (1 - t.tokens) / t.RatePerSec
	return false, time.Duration(math.Ceil(need * float64(time.Second)))
}

// RateRemaining samples the bucket balance at time now without taking a
// token; 0 when rate limiting is disabled.
func (t *Tenant) RateRemaining(now time.Time) float64 {
	if t.RatePerSec <= 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.refillLocked(now)
	return t.tokens
}

func (t *Tenant) refillLocked(now time.Time) {
	if t.last.IsZero() {
		t.last = now
		t.tokens = float64(t.Burst)
		return
	}
	dt := now.Sub(t.last).Seconds()
	if dt <= 0 {
		return
	}
	t.last = now
	t.tokens = math.Min(float64(t.Burst), t.tokens+dt*t.RatePerSec)
}

// Registry resolves API keys to tenants.
type Registry struct {
	enforced  bool
	anonymous *Tenant // nil when anonymous access is disabled
	byKey     map[string]*Tenant
	tenants   []*Tenant // stable name order, anonymous included when admitted
}

// Open returns the no-key-file registry: every request authenticates as one
// unlimited anonymous tenant.
func Open() *Registry {
	anon := &Tenant{Name: AnonymousName, Weight: 1, anonymous: true}
	return &Registry{anonymous: anon, byKey: map[string]*Tenant{}, tenants: []*Tenant{anon}}
}

// fileTenant is one entry of the key file.
type fileTenant struct {
	Name          string  `json:"name"`
	Key           string  `json:"key"`
	Weight        float64 `json:"weight,omitempty"`
	MaxQueuedJobs int     `json:"max_queued_jobs,omitempty"`
	MaxGridPoints int64   `json:"max_grid_points,omitempty"`
	RatePerSec    float64 `json:"rate_per_sec,omitempty"`
	Burst         int     `json:"burst,omitempty"`
}

// file is the key-file schema: a tenant list plus the anonymous policy.
type file struct {
	// AllowAnonymous admits requests without an API key as the anonymous
	// tenant; Anonymous optionally bounds that tenant (its name and key
	// fields are ignored).
	AllowAnonymous bool         `json:"allow_anonymous,omitempty"`
	Anonymous      *fileTenant  `json:"anonymous,omitempty"`
	Tenants        []fileTenant `json:"tenants"`
}

// Load reads and parses a key file.
func Load(path string) (*Registry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: read key file: %w", err)
	}
	r, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("tenant: %s: %w", path, err)
	}
	return r, nil
}

// Parse builds an enforced registry from key-file bytes.
func Parse(b []byte) (*Registry, error) {
	var f file
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("malformed key file: %w", err)
	}
	if len(f.Tenants) == 0 {
		return nil, errors.New("key file defines no tenants")
	}
	r := &Registry{enforced: true, byKey: make(map[string]*Tenant, len(f.Tenants))}
	names := map[string]bool{AnonymousName: true}
	for i, ft := range f.Tenants {
		if ft.Name == "" {
			return nil, fmt.Errorf("tenant %d: missing name", i)
		}
		if ft.Name == AnonymousName {
			return nil, fmt.Errorf("tenant %d: name %q is reserved (use allow_anonymous)", i, AnonymousName)
		}
		if ft.Key == "" {
			return nil, fmt.Errorf("tenant %q: missing key", ft.Name)
		}
		if names[ft.Name] {
			return nil, fmt.Errorf("duplicate tenant name %q", ft.Name)
		}
		names[ft.Name] = true
		if _, dup := r.byKey[ft.Key]; dup {
			return nil, fmt.Errorf("tenant %q: key already in use", ft.Name)
		}
		t, err := newTenant(ft, false)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %w", ft.Name, err)
		}
		r.byKey[ft.Key] = t
		r.tenants = append(r.tenants, t)
	}
	if f.AllowAnonymous {
		ft := fileTenant{}
		if f.Anonymous != nil {
			ft = *f.Anonymous
		}
		ft.Name = AnonymousName
		anon, err := newTenant(ft, true)
		if err != nil {
			return nil, fmt.Errorf("anonymous tenant: %w", err)
		}
		r.anonymous = anon
		r.tenants = append(r.tenants, anon)
	}
	sort.Slice(r.tenants, func(a, b int) bool { return r.tenants[a].Name < r.tenants[b].Name })
	return r, nil
}

func newTenant(ft fileTenant, anonymous bool) (*Tenant, error) {
	if ft.Weight < 0 || ft.MaxQueuedJobs < 0 || ft.MaxGridPoints < 0 || ft.RatePerSec < 0 || ft.Burst < 0 {
		return nil, errors.New("limits must be non-negative")
	}
	t := &Tenant{
		Name:          ft.Name,
		Weight:        ft.Weight,
		MaxQueuedJobs: ft.MaxQueuedJobs,
		MaxGridPoints: ft.MaxGridPoints,
		RatePerSec:    ft.RatePerSec,
		Burst:         ft.Burst,
		anonymous:     anonymous,
	}
	if t.Weight == 0 {
		t.Weight = 1
	}
	if t.RatePerSec > 0 && t.Burst == 0 {
		// A burst below the rate would reject steady traffic at the allowed
		// rate; default to one second's worth, at least 1.
		t.Burst = int(math.Max(1, math.Ceil(t.RatePerSec)))
	}
	return t, nil
}

// Enforced reports whether a key file backs the registry (as opposed to the
// open single-tenant mode).
func (r *Registry) Enforced() bool { return r.enforced }

// Authenticate resolves an API key. In open mode every key (including none)
// is the anonymous tenant. In enforced mode an empty key is the anonymous
// tenant when admitted, and unknown keys are ErrUnauthorized.
func (r *Registry) Authenticate(key string) (*Tenant, error) {
	if !r.enforced {
		return r.anonymous, nil
	}
	if key == "" {
		if r.anonymous != nil {
			return r.anonymous, nil
		}
		return nil, fmt.Errorf("%w: missing API key", ErrUnauthorized)
	}
	if t, ok := r.byKey[key]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("%w: unknown API key", ErrUnauthorized)
}

// Tenants lists every admitted tenant in stable name order.
func (r *Registry) Tenants() []*Tenant { return r.tenants }

package tenant

import (
	"errors"
	"testing"
	"time"
)

const twoTenantFile = `{
  "allow_anonymous": true,
  "anonymous": {"max_queued_jobs": 1, "rate_per_sec": 2},
  "tenants": [
    {"name": "acme", "key": "key-acme", "weight": 4, "max_queued_jobs": 8,
     "max_grid_points": 1048576, "rate_per_sec": 50, "burst": 100},
    {"name": "zeta", "key": "key-zeta"}
  ]
}`

func TestOpenRegistry(t *testing.T) {
	r := Open()
	if r.Enforced() {
		t.Fatal("open registry must not be enforced")
	}
	for _, key := range []string{"", "anything", "key-acme"} {
		tn, err := r.Authenticate(key)
		if err != nil || !tn.anonymous {
			t.Fatalf("Authenticate(%q) = %v, %v; want anonymous", key, tn, err)
		}
		if tn.OwnerName() != "" {
			t.Fatalf("anonymous owner name = %q, want empty", tn.OwnerName())
		}
		if ok, _ := tn.Allow(time.Now()); !ok {
			t.Fatal("open-mode anonymous tenant must never rate-limit")
		}
	}
}

func TestParseAndAuthenticate(t *testing.T) {
	r, err := Parse([]byte(twoTenantFile))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Enforced() {
		t.Fatal("key-file registry must be enforced")
	}
	acme, err := r.Authenticate("key-acme")
	if err != nil || acme.Name != "acme" {
		t.Fatalf("acme auth: %v, %v", acme, err)
	}
	if acme.Weight != 4 || acme.MaxQueuedJobs != 8 || acme.MaxGridPoints != 1<<20 {
		t.Fatalf("acme limits not preserved: %+v", acme)
	}
	zeta, err := r.Authenticate("key-zeta")
	if err != nil || zeta.Name != "zeta" {
		t.Fatalf("zeta auth: %v, %v", zeta, err)
	}
	if zeta.Weight != 1 {
		t.Fatalf("default weight = %v, want 1", zeta.Weight)
	}
	anon, err := r.Authenticate("")
	if err != nil || !anon.anonymous {
		t.Fatalf("anonymous auth: %v, %v", anon, err)
	}
	if anon.MaxQueuedJobs != 1 || anon.RatePerSec != 2 {
		t.Fatalf("anonymous limits not applied: %+v", anon)
	}
	if _, err := r.Authenticate("bogus"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unknown key: %v, want ErrUnauthorized", err)
	}

	names := []string{}
	for _, tn := range r.Tenants() {
		names = append(names, tn.Name)
	}
	want := []string{"acme", "anonymous", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("tenant order %v, want %v", names, want)
		}
	}
}

func TestParseRejectsAnonymousKey(t *testing.T) {
	r, err := Parse([]byte(`{"tenants": [{"name": "a", "key": "k"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Authenticate(""); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("missing key without allow_anonymous: %v, want ErrUnauthorized", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          `{"tenants": []}`,
		"no name":        `{"tenants": [{"key": "k"}]}`,
		"no key":         `{"tenants": [{"name": "a"}]}`,
		"reserved name":  `{"tenants": [{"name": "anonymous", "key": "k"}]}`,
		"dup name":       `{"tenants": [{"name": "a", "key": "k1"}, {"name": "a", "key": "k2"}]}`,
		"dup key":        `{"tenants": [{"name": "a", "key": "k"}, {"name": "b", "key": "k"}]}`,
		"negative limit": `{"tenants": [{"name": "a", "key": "k", "weight": -1}]}`,
		"not json":       `nope`,
	}
	for name, body := range cases {
		if _, err := Parse([]byte(body)); err == nil {
			t.Errorf("%s: Parse accepted %s", name, body)
		}
	}
}

func TestTokenBucket(t *testing.T) {
	tn := &Tenant{Name: "a", RatePerSec: 10, Burst: 2}
	t0 := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := tn.Allow(t0); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, retry := tn.Allow(t0)
	if ok {
		t.Fatal("empty bucket allowed a request")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retry hint %v, want (0, 100ms]", retry)
	}
	// After the hinted delay a token has accrued.
	if ok, _ := tn.Allow(t0.Add(retry)); !ok {
		t.Fatal("request after retry hint still rejected")
	}
	// A long idle period refills only to the burst cap.
	tn2 := &Tenant{Name: "b", RatePerSec: 10, Burst: 2}
	tn2.Allow(t0)
	if got := tn2.RateRemaining(t0.Add(time.Hour)); got != 2 {
		t.Fatalf("refill past burst: %v tokens, want 2", got)
	}
}

func TestTokenBucketDisabled(t *testing.T) {
	tn := &Tenant{Name: "a"}
	for i := 0; i < 1000; i++ {
		if ok, _ := tn.Allow(time.Unix(1000, 0)); !ok {
			t.Fatal("unlimited tenant rate-limited")
		}
	}
	if tn.RateRemaining(time.Unix(1000, 0)) != 0 {
		t.Fatal("disabled bucket should report 0 remaining")
	}
}

func TestBurstDefault(t *testing.T) {
	r, err := Parse([]byte(`{"tenants": [{"name": "a", "key": "k", "rate_per_sec": 2.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := r.Authenticate("k")
	if tn.Burst != 3 {
		t.Fatalf("defaulted burst = %d, want ceil(2.5) = 3", tn.Burst)
	}
}

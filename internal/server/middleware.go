package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"cordoba/api"
)

// StatusClientClosedRequest is the nginx-convention status recorded when
// the client canceled the request before a response was written.
const StatusClientClosedRequest = 499

// apiError is an error carrying the HTTP status and machine-readable code
// it should be reported as, plus an optional Retry-After hint.
type apiError struct {
	status     int
	code       string
	msg        string
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.msg }

// errf builds an apiError with a formatted message; the code defaults from
// the status via codeForStatus.
func errf(status int, format string, args ...any) error {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// errc builds an apiError with an explicit error code for cases where the
// status alone is ambiguous (the 409s on the job-result endpoint, say).
func errc(status int, code, format string, args ...any) error {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// codeForStatus maps an HTTP status onto the default machine-readable code
// the envelope carries when the handler didn't pick one explicitly.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return api.CodeInvalidRequest
	case http.StatusNotFound:
		return api.CodeNotFound
	case http.StatusRequestEntityTooLarge:
		return api.CodePayloadTooLarge
	case http.StatusUnauthorized:
		return api.CodeUnauthorized
	case http.StatusTooManyRequests:
		return api.CodeQueueFull
	case http.StatusConflict:
		return api.CodeNotReady
	case http.StatusGatewayTimeout:
		return api.CodeTimeout
	case StatusClientClosedRequest:
		return api.CodeClientClosed
	default:
		return api.CodeInternal
	}
}

// statusRecorder captures the status code and byte count written by a
// handler so the middleware can log and meter them.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming handlers (SSE) can
// push events through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handlerFunc is the internal handler signature: returning an error routes
// it through the shared envelope/status mapping in one place.
type handlerFunc func(w http.ResponseWriter, r *http.Request) error

// instrument wraps a handler with the full middleware stack: tenant auth
// and rate limiting, per-request timeout, panic recovery, metrics
// observation under the route label, and structured request logging.
func (s *Server) instrument(route string, h handlerFunc) http.Handler {
	return s.wrap(route, h, false)
}

// instrumentStream is instrument without the per-request timeout: a
// streaming route (SSE) legitimately outlives any deadline a request/reply
// route should tolerate, and is bounded by client disconnect instead.
func (s *Server) instrumentStream(route string, h handlerFunc) http.Handler {
	return s.wrap(route, h, true)
}

// publicRoute reports whether a route bypasses tenant auth: liveness probes
// and metrics scrapers don't carry API keys.
func publicRoute(route string) bool {
	return route == "/healthz" || route == "/metrics"
}

func (s *Server) wrap(route string, h handlerFunc, stream bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)

		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 && !stream {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		r = r.WithContext(ctx)

		rec := &statusRecorder{ResponseWriter: w}
		func() {
			defer func() {
				if p := recover(); p != nil {
					s.log.Error("panic in handler", "route", route, "panic", fmt.Sprint(p))
					writeError(rec, errf(http.StatusInternalServerError, "internal error"))
				}
			}()
			if !publicRoute(route) {
				var err error
				if r, err = s.authorize(r); err != nil {
					writeError(rec, err)
					return
				}
			}
			if err := h(rec, r); err != nil {
				writeError(rec, err)
			}
		}()

		elapsed := time.Since(start)
		s.metrics.ObserveRequest(route, rec.status, elapsed.Seconds())
		s.log.Info("request",
			"method", r.Method,
			"route", route,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"duration", elapsed,
			"cache", rec.Header().Get("X-Cache"),
		)
	})
}

// writeError renders err as the JSON error envelope, mapping context and
// body-size failures onto their HTTP statuses. If the handler already
// started streaming a body, the status is left alone and only the metric
// records the failure.
func writeError(w *statusRecorder, err error) {
	if w.status != 0 {
		return // headers already sent; can't change the status mid-stream
	}
	status := http.StatusInternalServerError
	code := ""
	msg := err.Error()
	var retryAfter time.Duration
	var (
		ae *apiError
		mb *http.MaxBytesError
	)
	switch {
	case errors.As(err, &ae):
		status = ae.status
		code = ae.code
		retryAfter = ae.retryAfter
	case errors.As(err, &mb):
		status = http.StatusRequestEntityTooLarge
		msg = fmt.Sprintf("request body exceeds %d bytes", mb.Limit)
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
		msg = "request deadline exceeded"
	case errors.Is(err, context.Canceled):
		status = StatusClientClosedRequest
		msg = "client closed request"
	}
	if code == "" {
		code = codeForStatus(status)
	}
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		// Ceil to whole seconds: Retry-After is integral, and rounding down
		// would invite a retry before the queue can possibly have drained.
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: errorBody{Status: status, Code: code, Message: msg}})
}

// writeJSON marshals v and writes it with the given status. The body is
// rendered to a buffer first so a marshal failure can still produce a clean
// error envelope, and so callers can cache the exact bytes.
func writeJSON(w http.ResponseWriter, status int, v any) ([]byte, error) {
	b, err := encodeJSON(v)
	if err != nil {
		return nil, err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, err = w.Write(b)
	return b, err
}

// encodeJSON renders v in the wire form every JSON response and stored job
// result shares: indented, newline-terminated. The slice is exactly sized:
// the response cache and the job history keep it, and MarshalIndent's
// buffer carries about as much spare capacity again.
func encodeJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// A NaN or ±Inf in a response means the request's parameters
		// overflowed the physics model (say, a 1e308 cm² die): the caller's
		// fault, not the server's.
		var uv *json.UnsupportedValueError
		if errors.As(err, &uv) {
			return nil, errf(http.StatusBadRequest,
				"parameters produce a non-finite result (%s); values are outside the model's range", uv.Str)
		}
		return nil, err
	}
	out := make([]byte, len(b)+1)
	copy(out, b)
	out[len(b)] = '\n'
	return out, nil
}

package wire

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"distal/internal/tensor"
)

// frameServer answers every /v1/run with one valid 4x4 output frame per
// instance of a batch of n, followed by trailing.
func frameServer(t *testing.T, n int, trailing string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out := tensor.New("A", 4, 4)
		out.FillRandom(1)
		(&RunStats{Output: "A"}).SetHeaders(w.Header())
		w.Header().Set(HeaderBatchStatus, strings.TrimSuffix(strings.Repeat(BatchStatusOK+",", n), ","))
		w.Header().Set("Content-Type", ContentTypeTensor)
		for i := 0; i < n; i++ {
			if err := Encode(w, out); err != nil {
				t.Error(err)
			}
		}
		w.Write([]byte(trailing)) //nolint:errcheck
	}))
}

// TestClientReadsResponseToEnd: Run and RunBatch read each response to its
// end, so a byte after the last frame is an error rather than silently
// left unread.
func TestClientReadsResponseToEnd(t *testing.T) {
	req := RunRequest{
		Stmt:   "A(i,j) = B(i,j)",
		Shapes: map[string][]int{"A": {4, 4}, "B": {4, 4}},
		Inputs: map[string]string{"B": "ones"},
	}
	batch := 2
	breq := req
	breq.Batch = &batch
	for _, trailing := range []string{"", "x"} {
		ts := frameServer(t, 1, trailing)
		_, _, err := (&Client{BaseURL: ts.URL}).Run(context.Background(), req, nil)
		ts.Close()
		if trailing == "" && err != nil {
			t.Fatalf("Run on a well-formed response: %v", err)
		}
		if trailing != "" && (err == nil || !strings.Contains(err.Error(), "trailing data")) {
			t.Fatalf("Run with a trailing byte: err = %v, want a trailing-data error", err)
		}

		ts = frameServer(t, batch, trailing)
		_, err = (&Client{BaseURL: ts.URL}).RunBatch(context.Background(), breq, nil)
		ts.Close()
		if trailing == "" && err != nil {
			t.Fatalf("RunBatch on a well-formed response: %v", err)
		}
		if trailing != "" && (err == nil || !strings.Contains(err.Error(), "trailing data")) {
			t.Fatalf("RunBatch with a trailing byte: err = %v, want a trailing-data error", err)
		}
	}
}

package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// parseSpans registers the span group on a fresh FlagSet and parses args.
func parseSpans(t *testing.T, args ...string) *Spans {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s := RegisterSpans(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpansValidate(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		traceOut string
		wantErr  string // "" = valid
	}{
		{name: "defaults", args: nil},
		{name: "sampling", args: []string{"-span-sample", "64", "-span-topk", "1"}},
		{name: "trace with sampling", args: []string{"-span-sample", "1"}, traceOut: "t.json"},
		{name: "zero topk", args: []string{"-span-sample", "64", "-span-topk", "0"}, wantErr: "-span-topk 0"},
		{name: "negative topk", args: []string{"-span-topk", "-3"}, wantErr: "-span-topk -3"},
		{name: "trace without sampling", traceOut: "t.json", wantErr: "-trace-out"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := parseSpans(t, tc.args...).Validate(tc.traceOut)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("accepted; want an error naming %s", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not name %s", err, tc.wantErr)
			}
		})
	}
}

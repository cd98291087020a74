package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"cosmos/internal/rl"
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

func TestPolicySpecs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		args      []string
		data, ctr string // the kind each role gets; "" = nil spec
		wantErr   string // "" = valid
	}{
		{name: "no flags", args: nil},
		{name: "role only", args: []string{"-policy-role", "ctr"}, wantErr: "-policy-role ctr needs -policy"},
		{name: "both roles", args: []string{"-policy", "mlp"}, data: "mlp", ctr: "mlp"},
		{name: "explicit both", args: []string{"-policy", "perceptron", "-policy-role", "both"}, data: "perceptron", ctr: "perceptron"},
		{name: "data role", args: []string{"-policy", "perceptron", "-policy-role", "data"}, data: "perceptron"},
		{name: "ctr role", args: []string{"-policy", "tabular", "-policy-role", "ctr"}, ctr: "tabular"},
		{name: "unknown kind", args: []string{"-policy", "transformer"}, wantErr: "valid: tabular, perceptron, mlp"},
		{name: "unknown role", args: []string{"-policy", "mlp", "-policy-role", "cache"}, wantErr: "valid: data, ctr, both"},
		{name: "unknown role without kind", args: []string{"-policy-role", "cache"}, wantErr: "valid: data, ctr, both"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			p := RegisterPolicy(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			data, ctr, err := p.Specs()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			for _, role := range []struct {
				name string
				got  *rl.PolicySpec
				want string
			}{{"data", data, tc.data}, {"ctr", ctr, tc.ctr}} {
				switch {
				case role.want == "" && role.got != nil:
					t.Errorf("%s spec = %+v, want nil", role.name, *role.got)
				case role.want != "" && (role.got == nil || role.got.Kind != role.want):
					t.Errorf("%s spec = %+v, want kind %s", role.name, role.got, role.want)
				}
			}
		})
	}
}

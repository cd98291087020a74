package cache

import (
	"strings"
	"testing"
)

func TestValidateGeometry(t *testing.T) {
	ok := []struct {
		size, ways int
	}{
		{32 << 10, 8}, {1 << 20, 16}, {64, 1}, {512, 8},
	}
	for _, c := range ok {
		if err := ValidateGeometry("t", c.size, c.ways); err != nil {
			t.Errorf("ValidateGeometry(%d, %d) rejected valid geometry: %v", c.size, c.ways, err)
		}
	}
	bad := []struct {
		size, ways int
		want       string
	}{
		{0, 8, "must be positive"},
		{-64, 8, "must be positive"},
		{32 << 10, 0, "must be positive"},
		{32 << 10, -2, "must be positive"},
		{100, 1, "not a multiple"},
		{48 << 10, 8, "not a power of two"},
	}
	for _, c := range bad {
		err := ValidateGeometry("t", c.size, c.ways)
		if err == nil {
			t.Errorf("ValidateGeometry(%d, %d) accepted invalid geometry", c.size, c.ways)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ValidateGeometry(%d, %d) = %q, want mention of %q", c.size, c.ways, err, c.want)
		}
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted non-power-of-two set count")
		}
	}()
	New("bad", 48<<10, 8, NewLRU())
}

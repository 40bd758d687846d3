package main

import "testing"

func TestGB(t *testing.T) {
	if gb(2_500_000_000) != 2.5 {
		t.Errorf("gb = %v", gb(2_500_000_000))
	}
}

package main

import (
	"reflect"
	"testing"
)

func TestReadScheduleDeterministic(t *testing.T) {
	hotKeys := []string{"h1", "h2", "h3"}
	coldKeys := []string{"c1", "c2", "c3", "c4", "c5", "c6"}
	a := readSchedule(42, hotKeys, coldKeys, 500)
	b := readSchedule(42, hotKeys, coldKeys, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) != 500 {
		t.Fatalf("schedule length %d", len(a))
	}
	c := readSchedule(43, hotKeys, coldKeys, 500)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	// The skew lands near the hot fraction.
	hot := map[string]bool{"h1": true, "h2": true, "h3": true}
	nhot := 0
	for _, k := range a {
		if hot[k] {
			nhot++
		}
	}
	if nhot < 375 || nhot > 475 {
		t.Fatalf("hot reads %d of 500, want near 425", nhot)
	}
	// Every hot key participates: the round-robin keeps the whole set warm.
	seen := map[string]int{}
	for _, k := range a {
		seen[k]++
	}
	for k := range hot {
		if seen[k] == 0 {
			t.Fatalf("hot key %s never scheduled", k)
		}
	}
}

func TestReadScheduleDegenerate(t *testing.T) {
	if got := readSchedule(1, []string{"h"}, nil, 10); len(got) != 10 {
		t.Fatalf("hot-only schedule: %v", got)
	} else {
		for _, k := range got {
			if k != "h" {
				t.Fatalf("hot-only drew %q", k)
			}
		}
	}
	cold := readSchedule(1, nil, []string{"c1", "c2"}, 20)
	if len(cold) != 20 {
		t.Fatalf("cold-only length %d", len(cold))
	}
	if got := readSchedule(1, nil, nil, 5); len(got) != 0 {
		t.Fatalf("empty shape scheduled %v", got)
	}
}

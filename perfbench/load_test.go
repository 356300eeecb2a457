package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := poissonSchedule(7, 150, 20*time.Second)
	b := poissonSchedule(7, 150, 20*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 150, 20*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 3000 expected arrivals: the count is within five standard deviations.
	if n := float64(len(a)); math.Abs(n-3000) > 5*math.Sqrt(3000) {
		t.Fatalf("%v arrivals in 20s at 150/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 20*time.Second {
			t.Fatalf("offset %d = %v out of order or past the span", i, a[i])
		}
	}
}

func TestInputPoolIsAFunctionOfTheSeed(t *testing.T) {
	shape := []int{1, 3, 4, 4}
	a, b, c := makeImages(3, 5, shape), makeImages(3, 5, shape), makeImages(4, 5, shape)
	for i := range a {
		if !reflect.DeepEqual(a[i].Data(), b[i].Data()) {
			t.Fatalf("image %d differs for the same seed", i)
		}
		if reflect.DeepEqual(a[i].Data(), c[i].Data()) {
			t.Fatalf("image %d equal for different seeds", i)
		}
	}
	if reflect.DeepEqual(a[0].Data(), a[1].Data()) {
		t.Fatal("two pool images are equal")
	}
	if !reflect.DeepEqual(pickSequence(3, streamPick, 100, 64), pickSequence(3, streamPick, 100, 64)) {
		t.Fatal("request picks differ for the same seed")
	}
	if reflect.DeepEqual(pickSequence(3, streamClient, 100, 64), pickSequence(3, streamClient+1, 100, 64)) {
		t.Fatal("two clients draw the same picks")
	}
}

func TestOverCapacity(t *testing.T) {
	flat := []int64{2, 3, 1, 2, 4, 2, 3, 2, 1, 3, 2, 2}
	if grew, _, _ := overCapacity(flat, 16); grew {
		t.Fatal("a flat backlog reported as over capacity")
	}
	growing := []int64{1, 2, 3, 5, 8, 12, 18, 25, 33, 42, 52, 64}
	if grew, first, last := overCapacity(growing, 16); !grew {
		t.Fatalf("a growing backlog (%.1f -> %.1f) not reported", first, last)
	}
}

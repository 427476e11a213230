package main

import (
	"slices"
	"sort"
	"testing"
)

func TestParseFigs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string // sorted; nil means an error
	}{
		{"8", []string{"8"}},
		{"8,9,classes", []string{"8", "9", "classes"}},
		{" 6 , 12", []string{"12", "6"}},
		{"all", []string{"10", "11", "12", "6", "7", "8", "9", "classes"}},
		{"8,all", []string{"10", "11", "12", "6", "7", "8", "9", "classes"}},
		{"8,99", nil},
		{"5", nil},
		{"13", nil},
		{"", nil},
		{"8,", nil},
		{"Classes", nil},
	} {
		got, err := parseFigs(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseFigs(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFigs(%q): %v", tc.in, err)
			continue
		}
		var ids []string
		for id := range got {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		if !slices.Equal(ids, tc.want) {
			t.Errorf("parseFigs(%q) = %v, want %v", tc.in, ids, tc.want)
		}
	}
}

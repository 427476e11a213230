package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cirank"
)

// TestSaveSnapshotHasNoStarIndex: the engine the server builds and saves
// carries no star index, since no search reads it. The saved file opens, and
// its section table names no star.* section.
func TestSaveSnapshotHasNoStarIndex(t *testing.T) {
	eng, err := buildEngine("dblp", 0.1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "eng.snap")
	if err := saveSnapshot(eng, path); err != nil {
		t.Fatal(err)
	}
	opened, err := cirank.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if opened.NumNodes() != eng.NumNodes() || opened.NumEdges() != eng.NumEdges() {
		t.Errorf("opened %d nodes, %d edges; built %d, %d",
			opened.NumNodes(), opened.NumEdges(), eng.NumNodes(), eng.NumEdges())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Header: magic, version, section count, table CRC; then one 40-byte
	// entry per section, led by its NUL-padded 16-byte name.
	count := int(binary.LittleEndian.Uint32(data[8:]))
	var names []string
	for i := 0; i < count; i++ {
		entry := data[16+40*i:]
		names = append(names, string(bytes.TrimRight(entry[:16], "\x00")))
	}
	if len(names) == 0 || names[0] != "meta" {
		t.Fatalf("section table %v does not start with meta", names)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "star.") {
			t.Errorf("saved snapshot has section %q; sections %v", name, names)
		}
	}
}

package xdgp_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"xdgp/internal/apps"
	"xdgp/internal/bsp"
	"xdgp/internal/core"
	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/metis"
	"xdgp/internal/partition"
	"xdgp/internal/server"
	"xdgp/internal/snapshot"
)

// refusal runs fn and returns its error, or the panic it raised as one.
func refusal(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// snapshotWithK writes a k=4 snapshot and re-stamps both of its k fields
// (Params and the assignment section) and the checksum with k.
func snapshotWithK(t *testing.T, k uint64) []byte {
	t.Helper()
	g := gen.HolmeKim(60, 3, 0.1, 5)
	cfg := core.DefaultConfig(4, 1)
	p, err := core.New(g, partition.Hash(g, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Capture(p, cfg, snapshot.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	params := len(snapshot.Magic) + 4
	asn := params + 67 + 32 + 8 + g.BinarySize()
	binary.LittleEndian.PutUint64(raw[params:], k)
	binary.LittleEndian.PutUint64(raw[asn:], k)
	body := raw[:len(raw)-4]
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(body))
	return raw
}

// TestMaxKRefusedAtEveryEntryPoint pins the one limit of the one-byte
// placement tables: every way a partition count enters the program
// refuses k = MaxK+1, while k = MaxK works.
func TestMaxKRefusedAtEveryEntryPoint(t *testing.T) {
	g := gen.HolmeKim(300, 3, 0.1, 1)
	entries := map[string]func(k int) error{
		"core.New": func(k int) error {
			_, err := core.New(graph.NewUndirected(0), partition.NewAssignment(0, min(k, partition.MaxK)), core.DefaultConfig(k, 1))
			return err
		},
		"server.New": func(k int) error {
			_, err := server.New(server.DefaultConfig(k, 1))
			return err
		},
		"bsp.NewEngine": func(k int) error {
			_, err := bsp.NewEngine(g, partition.NewAssignment(g.NumSlots(), k), apps.NewWCC(), bsp.Config{Workers: 1})
			if err != nil && strings.Contains(err.Error(), "invalid assignment") {
				return nil // k passed; the empty table is the next check
			}
			return err
		},
		"partition.FromTable": func(k int) error {
			_, err := partition.FromTable([]partition.ID{partition.ID(k - 1), partition.None}, k)
			return err
		},
		"partition.Load": func(k int) error {
			_, err := partition.Load(strings.NewReader(fmt.Sprintf("%d 1\n%d\n", k, k-1)))
			return err
		},
		"metis.PartitionKWay": func(k int) error {
			_, err := metis.PartitionKWay(g, k, metis.DefaultOptions(1))
			return err
		},
		"snapshot.Read": func(k int) error {
			_, err := snapshot.Read(bytes.NewReader(snapshotWithK(t, uint64(k))))
			return err
		},
	}
	for _, s := range partition.AllStrategies() {
		entries["partition.Initial/"+string(s)] = func(k int) error {
			_, err := partition.Initial(s, g, k, 1.10, 1)
			return err
		}
	}
	for name, enter := range entries {
		if err := refusal(func() error { return enter(partition.MaxK) }); err != nil {
			t.Errorf("%s: k=%d refused: %v", name, partition.MaxK, err)
		}
		err := refusal(func() error { return enter(partition.MaxK + 1) })
		if err == nil || !strings.Contains(err.Error(), "256") {
			t.Errorf("%s: k=%d not refused with its value: %v", name, partition.MaxK+1, err)
		}
	}
}

package cluster

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"rtmdm/internal/scenario"
)

func testNodes() []NodeState {
	return []NodeState{
		{
			Node: "n-b", Platform: "stm32h743", Policy: "rt-mdm", HorizonMs: 200,
			Tasks: []scenario.TaskSpec{
				{Name: "kws", Model: "ds-cnn", PeriodMs: 50},
				{Name: "ae", Model: "autoencoder", PeriodMs: 100},
			},
		},
		{
			Node: "n-a", Platform: "stm32h743", Policy: "rt-mdm", HorizonMs: 200,
			Tasks: []scenario.TaskSpec{{Name: "solo", Model: "tinymlp", PeriodMs: 40}},
		},
		// A bound node with nothing committed yet is still state.
		{Node: "n-empty", Platform: "stm32h743", Policy: "rt-mdm", HorizonMs: 200},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap, err := NewSnapshot("shard-0", testNodes())
	if err != nil {
		t.Fatal(err)
	}
	// NewSnapshot sorts by node name.
	for i, want := range []string{"n-a", "n-b", "n-empty"} {
		if snap.Nodes[i].Node != want {
			t.Fatalf("node %d = %q, want %q", i, snap.Nodes[i].Node, want)
		}
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != "shard-0" || len(got.Nodes) != 3 || got.Checksum != snap.Checksum {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestSnapshotEncodingStable: equal states serialize byte-identically —
// the property the cluster smoke's snapshot diff rests on.
func TestSnapshotEncodingStable(t *testing.T) {
	var a, b bytes.Buffer
	for _, buf := range []*bytes.Buffer{&a, &b} {
		snap, err := NewSnapshot("s", testNodes())
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.Encode(buf); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("equal states produced different snapshot bytes")
	}
}

func TestSnapshotRejectsDuplicateNode(t *testing.T) {
	nodes := testNodes()
	nodes = append(nodes, nodes[0])
	if _, err := NewSnapshot("s", nodes); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

func encodeTestSnapshot(t *testing.T) []byte {
	t.Helper()
	snap, err := NewSnapshot("s", testNodes())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	good := encodeTestSnapshot(t)

	t.Run("bit flip in a record", func(t *testing.T) {
		bad := bytes.Replace(good, []byte(`"period_ms": 50`), []byte(`"period_ms": 51`), 1)
		if bytes.Equal(bad, good) {
			t.Fatal("tamper target not found")
		}
		if _, err := DecodeSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatal("tampered record restored")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := DecodeSnapshot(bytes.NewReader(good[:len(good)/2])); err == nil {
			t.Fatal("truncated snapshot restored")
		}
	})
	t.Run("trailing data", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), []byte(`{"version":1}`)...)
		if _, err := DecodeSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatal("snapshot with trailing data restored")
		}
	})
	t.Run("unknown field", func(t *testing.T) {
		bad := bytes.Replace(good, []byte(`"version"`), []byte(`"surprise": 1, "version"`), 1)
		if _, err := DecodeSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatal("snapshot with unknown field restored")
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := bytes.Replace(good, []byte(`"version": 1`), []byte(`"version": 99`), 1)
		if _, err := DecodeSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatal("future-versioned snapshot restored")
		}
	})
	t.Run("checksum mismatch names the cause", func(t *testing.T) {
		// Flip one hex digit of the stored checksum; every digit appears
		// somewhere, so swap the first one found after the field name.
		i := bytes.Index(good, []byte(`"checksum": "`))
		if i < 0 {
			t.Fatal("checksum field not found")
		}
		bad := append([]byte(nil), good...)
		j := i + len(`"checksum": "`)
		if bad[j] == '0' {
			bad[j] = '1'
		} else {
			bad[j] = '0'
		}
		_, err := DecodeSnapshot(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "corrupt or truncated") {
			t.Fatalf("want a checksum diagnosis, got %v", err)
		}
	})
}

// FuzzDecodeSnapshot: DecodeSnapshot never panics, and every snapshot it
// accepts re-encodes to bytes that decode to an equal snapshot and
// re-encode identically — a restored shard can always re-save exactly
// the state it loaded.
func FuzzDecodeSnapshot(f *testing.F) {
	var seed bytes.Buffer
	snap, err := NewSnapshot("shard-0", testNodes())
	if err != nil {
		f.Fatal(err)
	}
	if err := snap.Encode(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := got.Encode(&first); err != nil {
			t.Fatalf("re-encode accepted snapshot: %v", err)
		}
		again, err := DecodeSnapshot(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip changed the snapshot:\n%+v\n%+v", got, again)
		}
		var second bytes.Buffer
		if err := again.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

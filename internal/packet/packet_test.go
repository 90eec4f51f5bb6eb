package packet

import "testing"

func TestFlitCounts(t *testing.T) {
	// §II: a read request is a single 16 B flit; write request and read
	// response packets contain five flits (64 B lines). Management
	// packets are charged as one 64 B packet.
	want := map[Kind]int{
		ReadReq:  1,
		WriteReq: 5,
		ReadResp: 5,
		Control:  5,
	}
	for kind, n := range want {
		if got := kind.Flits(); got != n {
			t.Errorf("%v.Flits() = %d, want %d", kind, got, n)
		}
	}
	// Every named kind is pinned above, and the table has no row beyond
	// the named kinds.
	if len(kindFlits) != len(want) {
		t.Errorf("kindFlits has %d rows, want %d", len(kindFlits), len(want))
	}
	for k := range kindFlits {
		if _, ok := want[Kind(k)]; !ok {
			t.Errorf("%v has no pinned flit count", Kind(k))
		}
	}
}

func TestBytes(t *testing.T) {
	p := &Packet{Kind: ReadResp}
	if got := p.Bytes(); got != 80 {
		t.Errorf("ReadResp bytes = %d, want 80", got)
	}
	p.Kind = ReadReq
	if got := p.Bytes(); got != 16 {
		t.Errorf("ReadReq bytes = %d, want 16", got)
	}
}

func TestClassification(t *testing.T) {
	if !ReadReq.IsRead() || !ReadResp.IsRead() {
		t.Error("read kinds not classified as reads")
	}
	if WriteReq.IsRead() || Control.IsRead() {
		t.Error("non-read kinds classified as reads")
	}
	if !ReadReq.Downstream() || !WriteReq.Downstream() {
		t.Error("request kinds not downstream")
	}
	if ReadResp.Downstream() {
		t.Error("read response marked downstream")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		ReadReq: "ReadReq", WriteReq: "WriteReq", ReadResp: "ReadResp", Control: "Control",
	} {
		if k.String() != want {
			t.Errorf("String() = %q, want %q", k.String(), want)
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Errorf("unknown kind string = %q", Kind(42).String())
	}
}

func TestUnknownKindFlitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Flits on unknown kind did not panic")
		}
	}()
	Kind(42).Flits()
}

func TestPacketString(t *testing.T) {
	p := &Packet{ID: 7, Kind: ReadReq, Src: ProcessorID, Dst: 3, Addr: 0x1000}
	if got := p.String(); got != "ReadReq#7 -1->3 addr=0x1000" {
		t.Errorf("String() = %q", got)
	}
}

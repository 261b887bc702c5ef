// Package trace records and replays instruction event streams.
//
// The paper contrasts execution-driven simulation (what this repository
// primarily does) with trace-driven simulation: capture the functional
// event stream once, then re-run different timing models over the stored
// trace. Trace-driven simulation cannot provide timing feedback — the
// limitation Section 1 discusses — but it is the right tool for timing-
// model studies over a fixed instruction stream, so the substrate is
// provided here: a compact binary format, a vm.Sink that records, and a
// replayer that feeds any other sink (e.g. a timing.Core).
//
// Format (little endian): the magic header, then one record per event:
//
//	flags   byte  bit0 taken, bit1 has-mem, bit2 has-target,
//	              bit3 next-is-sequential
//	op      byte
//	rd,rs1,rs2 bytes
//	pc      uvarint (delta-encoded against the previous PC)
//	nextpc  uvarint delta (absent when sequential)
//	mem     uvarint delta against previous mem address (when present)
//	target  uvarint delta against pc (when present)
//
// Deltas are zig-zag encoded. Typical traces compress to ~4-6 bytes per
// instruction.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Magic identifies the trace format version.
const Magic = "DSTRACE1\n"

const (
	flagTaken byte = 1 << iota
	flagHasMem
	flagHasTarget
	flagSequential
)

func zig(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer records events to an output stream. It implements vm.Sink, so
// it can be handed directly to vm.Machine.Run.
type Writer struct {
	w       *bufio.Writer
	prevPC  uint64
	prevMem uint64
	count   uint64
	err     error
	buf     []byte
}

// NewWriter creates a trace writer and emits the header.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	return &Writer{w: bw, buf: make([]byte, 0, 64)}, nil
}

// OnEvents implements vm.Sink. The delta encoding is strictly
// sequential over events, so how the stream is cut into batches never
// changes the bytes written. Encoding errors are sticky and reported by
// Close.
func (t *Writer) OnEvents(evs []vm.Event) {
	for i := range evs {
		if t.err != nil {
			return
		}
		ev := &evs[i]
		var flags byte
		if ev.Taken {
			flags |= flagTaken
		}
		hasMem := ev.Class == isa.ClassLoad || ev.Class == isa.ClassStore
		if hasMem {
			flags |= flagHasMem
		}
		hasTarget := ev.Target != 0
		if hasTarget {
			flags |= flagHasTarget
		}
		sequential := ev.NextPC == ev.PC+isa.InstBytes
		if sequential {
			flags |= flagSequential
		}
		b := t.buf[:0]
		b = append(b, flags, byte(ev.Op), ev.Rd, ev.Rs1, ev.Rs2)
		b = binary.AppendUvarint(b, zig(int64(ev.PC-t.prevPC)))
		if !sequential {
			b = binary.AppendUvarint(b, zig(int64(ev.NextPC-ev.PC)))
		}
		if hasMem {
			b = binary.AppendUvarint(b, zig(int64(ev.MemAddr-t.prevMem)))
			t.prevMem = ev.MemAddr
		}
		if hasTarget {
			b = binary.AppendUvarint(b, zig(int64(ev.Target-ev.PC)))
		}
		t.prevPC = ev.PC
		t.count++
		if _, err := t.w.Write(b); err != nil {
			t.err = err
		}
	}
}

// Count returns the number of events recorded.
func (t *Writer) Count() uint64 { return t.count }

// Close flushes the trace and returns any sticky error.
func (t *Writer) Close() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Reader replays a recorded trace.
type Reader struct {
	r       *bufio.Reader
	prevPC  uint64
	prevMem uint64
	count   uint64
}

// NewReader validates the header and returns a replayer.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != Magic {
		return nil, errors.New("trace: bad magic (not a trace file or wrong version)")
	}
	return &Reader{r: br}, nil
}

// Next decodes one event. It returns io.EOF at the end of the trace.
func (t *Reader) Next(ev *vm.Event) error {
	flags, err := t.r.ReadByte()
	if err != nil {
		return err // io.EOF at a record boundary is the normal end
	}
	var hdr [4]byte
	if _, err := io.ReadFull(t.r, hdr[:]); err != nil {
		return fmt.Errorf("trace: truncated record: %w", err)
	}
	*ev = vm.Event{Op: isa.Op(hdr[0]), Rd: hdr[1], Rs1: hdr[2], Rs2: hdr[3]}
	if !ev.Op.Valid() {
		return fmt.Errorf("trace: invalid opcode %d in trace", hdr[0])
	}
	ev.Class = ev.Op.Class()
	ev.Taken = flags&flagTaken != 0

	d, err := binary.ReadUvarint(t.r)
	if err != nil {
		return fmt.Errorf("trace: truncated pc: %w", err)
	}
	ev.PC = t.prevPC + uint64(unzig(d))
	t.prevPC = ev.PC

	if flags&flagSequential != 0 {
		ev.NextPC = ev.PC + isa.InstBytes
	} else {
		d, err := binary.ReadUvarint(t.r)
		if err != nil {
			return fmt.Errorf("trace: truncated nextpc: %w", err)
		}
		ev.NextPC = ev.PC + uint64(unzig(d))
	}
	if flags&flagHasMem != 0 {
		d, err := binary.ReadUvarint(t.r)
		if err != nil {
			return fmt.Errorf("trace: truncated mem: %w", err)
		}
		ev.MemAddr = t.prevMem + uint64(unzig(d))
		t.prevMem = ev.MemAddr
	}
	if flags&flagHasTarget != 0 {
		d, err := binary.ReadUvarint(t.r)
		if err != nil {
			return fmt.Errorf("trace: truncated target: %w", err)
		}
		ev.Target = ev.PC + uint64(unzig(d))
	}
	t.count++
	return nil
}

// Count returns the number of events decoded so far.
func (t *Reader) Count() uint64 { return t.count }

// Replay feeds every remaining event to sink, in batches as
// vm.Machine.Run would, and returns the number of events delivered;
// events decoded before a read error are delivered before the error is
// returned.
func (t *Reader) Replay(sink vm.Sink) (uint64, error) {
	batch := make([]vm.Event, 256)
	var n uint64
	for {
		k := 0
		var err error
		for k < len(batch) {
			if err = t.Next(&batch[k]); err != nil {
				break
			}
			k++
		}
		if k > 0 {
			sink.OnEvents(batch[:k])
			n += uint64(k)
		}
		// Only Next's bare io.EOF is the end of the trace; one wrapped in
		// a truncation error is a record cut short.
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

package vm

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// tlbThrash builds a program whose TLB refill count is sensitive to the
// TLB geometry: it stores to 64 distinct pages, cyclically, three times.
// A 256-entry TLB sees only cold refills; a 16-entry TLB conflicts on
// every access.
func tlbThrash(b *asm.Builder) {
	b.Movi(1, 3) // rounds
	b.Label("round")
	b.Movi(5, 0x100000)
	b.Movi(2, 64) // pages per round
	b.Label("page")
	b.St(1, 5, 0)
	b.I(isa.OpAddi, 5, 5, 4096)
	b.I(isa.OpAddi, 2, 2, -1)
	b.Br(isa.OpBne, 2, 0, "page")
	b.I(isa.OpAddi, 1, 1, -1)
	b.Br(isa.OpBne, 1, 0, "round")
	b.Halt()
}

func loadInto(t *testing.T, cfg Config, build func(*asm.Builder)) *Machine {
	t.Helper()
	b := asm.NewBuilder(0x1000)
	build(b)
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())
	m := New(cfg)
	m.Load(img)
	return m
}

// TestRestoreReallocatesTLB is the regression test for the latent
// restore bug where copy(m.tlb, s.tlb) silently truncated the TLB when
// the restoring machine was configured with a different TLBEntries than
// the snapshotted one. The snapshot's TLB geometry must win: resuming
// from the restore must reproduce the donor machine's exact statistics,
// refills included. Small donors restored into a large machine also pin
// that tlbMask follows the restored geometry: a mask left wider than
// the TLB would probe slots the restored array does not have.
func TestRestoreReallocatesTLB(t *testing.T) {
	for _, c := range []struct{ donor, into int }{
		{256, 16}, {256, 4096}, {4, 1024}, {16, 1024}, {32, 1024},
	} {
		donor := loadInto(t, Config{MemSpan: 64 << 20, TLBEntries: c.donor}, tlbThrash)
		donor.Run(100, nil)
		snap := donor.Snapshot()
		donor.RunToCompletion(0, nil)
		want := donor.Stats()

		m := loadInto(t, Config{MemSpan: 64 << 20, TLBEntries: c.into}, tlbThrash)
		if err := m.Restore(snap); err != nil {
			t.Fatalf("TLBEntries %d into %d: %v", c.donor, c.into, err)
		}
		m.RunToCompletion(0, nil)
		if got := m.Stats(); got != want {
			t.Errorf("TLBEntries %d into %d: restored run diverged:\n got %+v\nwant %+v",
				c.donor, c.into, got, want)
		}
	}
}

// TestRestorePreservesTCStats pins the warm-start guarantee the
// checkpoint store is built on: restoring a snapshot into a fresh
// machine and resuming with the same Run partitioning reproduces the
// donor's statistics bit-for-bit — including the translation-cache and
// TLB counters Dynamic Sampling monitors, which the old
// flush-and-retranslate restore perturbed.
func TestRestorePreservesTCStats(t *testing.T) {
	const chunk = 1000
	cfg := Config{MemSpan: 64 << 20}

	ref := loadInto(t, cfg, tlbThrash)
	for !ref.Halted() {
		if ref.Run(chunk, nil) == 0 {
			break
		}
	}
	want := ref.Stats()

	donor := loadInto(t, cfg, tlbThrash)
	for i := 0; i < 3; i++ {
		donor.Run(chunk, nil)
	}
	snap := donor.Snapshot()

	fresh := loadInto(t, cfg, tlbThrash)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if fresh.TCBlocks() == 0 {
		t.Fatal("restore did not rebuild the translation cache")
	}
	if fresh.TCBlocks() != donor.TCBlocks() {
		t.Fatalf("restored TC has %d blocks, donor has %d", fresh.TCBlocks(), donor.TCBlocks())
	}
	if fresh.Stats() != donor.Stats() {
		t.Fatal("restore perturbed statistics")
	}
	for !fresh.Halted() {
		if fresh.Run(chunk, nil) == 0 {
			break
		}
	}
	if got := fresh.Stats(); got != want {
		t.Fatalf("resumed run diverged from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}
}

// smcChurn alternates between executing a routine on its own code page
// and rewriting that routine's first word in place (identical bytes,
// but the store lands on a code page), so translations are repeatedly
// invalidated and re-made: the translation cache keeps changing for the
// whole run.
func smcChurn(b *asm.Builder) {
	b.Movi(1, 64)
	b.Movi(5, 0x2000)
	b.Label("round")
	b.Jal(7, "routine")
	b.Ld(6, 5, 0)
	b.St(6, 5, 0)
	b.I(isa.OpAddi, 1, 1, -1)
	b.Br(isa.OpBne, 1, 0, "round")
	b.Halt()
	for b.PC() < 0x2000 {
		b.Nop()
	}
	b.Label("routine")
	b.I(isa.OpAddi, 2, 2, 1)
	b.St(2, 5, 4096)
	b.Jalr(0, 7, 0)
}

// TestRestoreReconcilesLiveTC restores a snapshot into a machine whose
// translation cache has diverged past the snapshot point — extra live
// blocks from later translations and dead ones from self-modifying
// stores — exercising the in-place reconcile path (kills and installs,
// no teardown). The reconciled machine must carry the snapshot-point
// statistics exactly and resume to the donor's final state bit-for-bit.
func TestRestoreReconcilesLiveTC(t *testing.T) {
	const chunk = 37 // prime: chunk boundaries land mid-block, mid-round
	cfg := Config{MemSpan: 64 << 20}

	donor := loadInto(t, cfg, smcChurn)
	donor.Run(chunk, nil)
	donor.Run(chunk, nil)
	snap := donor.Snapshot()
	statsAtSnap := donor.Stats()
	tcAtSnap := donor.TCBlocks()
	for !donor.Halted() {
		if donor.Run(chunk, nil) == 0 {
			break
		}
	}
	want := donor.Stats()

	m := loadInto(t, cfg, smcChurn)
	for i := 0; i < 5; i++ {
		m.Run(chunk, nil)
	}
	if m.Stats() == statsAtSnap {
		t.Fatal("machine under test did not diverge before the restore")
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if m.TCBlocks() != tcAtSnap {
		t.Fatalf("reconciled TC has %d blocks, donor had %d", m.TCBlocks(), tcAtSnap)
	}
	if m.Stats() != statsAtSnap {
		t.Fatalf("reconcile perturbed statistics:\n got %+v\nwant %+v", m.Stats(), statsAtSnap)
	}
	// Immediately restoring again takes the stamp-equal fast path and
	// must be a no-op.
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if m.Stats() != statsAtSnap || m.TCBlocks() != tcAtSnap {
		t.Fatal("stamp-equal restore was not a no-op")
	}
	for !m.Halted() {
		if m.Run(chunk, nil) == 0 {
			break
		}
	}
	if got := m.Stats(); got != want {
		t.Fatalf("resumed run diverged from donor:\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotSerializeRoundTrip proves machine state survives a
// process boundary: serialize, deserialize, restore into a fresh
// machine, resume, and require the final state to match an
// uninterrupted run with the same partitioning, statistics included.
func TestSnapshotSerializeRoundTrip(t *testing.T) {
	const chunk = 700
	cfg := Config{MemSpan: 64 << 20}

	ref := loadInto(t, cfg, tlbThrash)
	for !ref.Halted() {
		if ref.Run(chunk, nil) == 0 {
			break
		}
	}

	donor := loadInto(t, cfg, tlbThrash)
	for i := 0; i < 2; i++ {
		donor.Run(chunk, nil)
	}
	snap := donor.Snapshot()

	var buf bytes.Buffer
	n, err := snap.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	// The encoding must be deterministic: a second serialization of the
	// same snapshot is byte-identical (the disk store depends on this
	// for idempotent concurrent writes).
	var buf2 bytes.Buffer
	if _, err := snap.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("serialization is not deterministic")
	}

	decoded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Instructions() != snap.Instructions() {
		t.Fatalf("decoded snapshot at instr %d, want %d", decoded.Instructions(), snap.Instructions())
	}
	fresh := loadInto(t, cfg, tlbThrash)
	if err := fresh.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	if fresh.Stats() != donor.Stats() {
		t.Fatal("deserialized restore perturbed statistics")
	}
	for !fresh.Halted() {
		if fresh.Run(chunk, nil) == 0 {
			break
		}
	}
	if fresh.Stats() != ref.Stats() {
		t.Fatalf("resume from serialized snapshot diverged:\n got %+v\nwant %+v",
			fresh.Stats(), ref.Stats())
	}
	if fresh.Reg(5) != ref.Reg(5) || fresh.PC() != ref.PC() {
		t.Fatal("resume from serialized snapshot: architectural state diverged")
	}
}

// TestReadSnapshotRejectsCorruption covers the fault classes the digest
// footer must catch: truncation anywhere, a flipped byte anywhere, and
// a stale version header. Every case must produce an error — never a
// panic, never a silently-restored corrupt snapshot.
func TestReadSnapshotRejectsCorruption(t *testing.T) {
	donor := loadInto(t, Config{MemSpan: 64 << 20}, tlbThrash)
	donor.Run(2500, nil)
	var buf bytes.Buffer
	if _, err := donor.Snapshot().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	decode := func(b []byte) error {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadSnapshot panicked: %v", r)
			}
		}()
		_, err := ReadSnapshot(bytes.NewReader(b))
		return err
	}

	if err := decode(raw); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	// Truncation at a spread of lengths (including 0 and len-1).
	for _, n := range []int{0, 1, 7, 8, 100, len(raw) / 2, len(raw) - 9, len(raw) - 1} {
		if err := decode(raw[:n]); err == nil {
			t.Errorf("truncation to %d bytes not detected", n)
		}
	}

	// A flipped byte at sampled offsets across the whole payload and in
	// the footer itself.
	step := len(raw)/257 + 1
	for off := 0; off < len(raw); off += step {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		if err := decode(mut); err == nil {
			t.Errorf("flipped byte at offset %d not detected", off)
		}
	}
	for off := len(raw) - 8; off < len(raw); off++ {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x01
		if err := decode(mut); err == nil {
			t.Errorf("flipped footer byte at offset %d not detected", off)
		}
	}

	// Stale version header.
	mut := append([]byte(nil), raw...)
	mut[4] = snapVersion + 1
	err := decode(mut)
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("stale version: got %v, want ErrSnapshotVersion", err)
	}
}

// TestRestoreMidBlockClearsFastPaths is the regression test for the
// interpreter's state that outlives a block — the chain links and the
// TLB array's contents — across a snapshot restore. The snapshot is
// taken mid-block (prime chunk) with the chains formed; the restoring
// machine then runs far past the snapshot so every chain link and TLB
// line describes later execution. Restore must bring the TLB back to
// the snapshot's contents — a line left from the later run would skip
// refills the donor performed, skewing the refill statistics — and the
// resumed run must match a cold machine executing the same partition
// sequence bit-for-bit, statistics included.
func TestRestoreMidBlockClearsFastPaths(t *testing.T) {
	const j = 41 // prime: snapshot and resume points land mid-block
	cfg := Config{MemSpan: 64 << 20}

	donor := loadInto(t, cfg, tlbThrash)
	donor.Run(j, nil)
	donor.Run(j, nil)
	snap := donor.Snapshot()

	// Cold reference: the same partition sequence from boot, no restore.
	ref := loadInto(t, cfg, tlbThrash)
	ref.Run(j, nil)
	ref.Run(j, nil)
	for !ref.Halted() {
		if ref.Run(j, nil) == 0 {
			break
		}
	}
	want := ref.Stats()

	// Pollute the donor's fast-path state far past the snapshot point,
	// then restore (the in-place reconcile path) and resume with the
	// reference's partitioning.
	for i := 0; i < 20; i++ {
		donor.Run(j, nil)
	}
	if err := donor.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for !donor.Halted() {
		if donor.Run(j, nil) == 0 {
			break
		}
	}
	if got := donor.Stats(); got != want {
		t.Fatalf("restored run diverged from cold run:\n got %+v\nwant %+v", got, want)
	}
	for r := 0; r < isa.NumRegs; r++ {
		if donor.Reg(r) != ref.Reg(r) {
			t.Fatalf("r%d: restored %d vs cold %d", r, donor.Reg(r), ref.Reg(r))
		}
	}
}

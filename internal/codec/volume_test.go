package codec

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/xrand"
)

func testVolumeCodec(t *testing.T) *Codec {
	t.Helper()
	c, err := NewCodec(Params{N: 12, K: 8, PayloadBytes: 10, Seed: 42, IndexBases: 10})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEncodeFileUnchangedByNewParams(t *testing.T) {
	// The zero values of IndexSeed/IndexOffset must keep EncodeFile
	// byte-identical to the pre-volume behaviour: same index mask (from
	// Seed), same indices starting at 0.
	c := testVolumeCodec(t)
	data := []byte("volume framing must not disturb the classic single-file path")
	strands, err := c.EncodeFile(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range strands {
		idx, _, err := c.ParseStrand(s)
		if err != nil {
			t.Fatalf("strand %d: %v", i, err)
		}
		if idx != uint64(i) {
			t.Fatalf("strand %d parsed to index %d; zero IndexOffset must keep indices dense from 0", i, idx)
		}
	}
	got, rep, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: err=%v clean=%v", err, rep.Clean())
	}
}

func TestVolumeRoundTrip(t *testing.T) {
	c := testVolumeCodec(t)
	const volumeBytes = 200
	rng := xrand.New(9)
	archive := make([]byte, 3*volumeBytes-57) // last volume runs short
	for i := range archive {
		archive[i] = byte(rng.Intn(256))
	}
	n := VolumeCount(int64(len(archive)), volumeBytes)
	if n != 3 {
		t.Fatalf("VolumeCount = %d, want 3", n)
	}
	var recovered []byte
	for id := 0; id < n; id++ {
		lo := id * volumeBytes
		hi := min(lo+volumeBytes, len(archive))
		strands, err := c.EncodeVolume(uint32(id), volumeBytes, archive[lo:hi])
		if err != nil {
			t.Fatalf("encode volume %d: %v", id, err)
		}
		h, data, rep, err := c.DecodeVolumeContext(context.Background(), uint32(id), volumeBytes, strands, DecodeOptions{})
		if err != nil {
			t.Fatalf("decode volume %d: %v", id, err)
		}
		if !rep.Clean() {
			t.Fatalf("volume %d report not clean: %s", id, rep)
		}
		if h.ID != uint32(id) || h.PayloadLen != uint64(hi-lo) {
			t.Fatalf("volume %d header = %+v", id, h)
		}
		recovered = append(recovered, data...)
	}
	if !bytes.Equal(recovered, archive) {
		t.Fatal("volume-sharded round trip corrupted the archive")
	}
}

func TestVolumeIndexSpaceAndDemux(t *testing.T) {
	c := testVolumeCodec(t)
	const volumeBytes = 200
	capacity := c.VolumeCapacity(volumeBytes)
	if capacity == 0 {
		t.Fatal("zero capacity")
	}
	for id := uint32(0); id < 3; id++ {
		data := bytes.Repeat([]byte{byte(id + 1)}, volumeBytes)
		strands, err := c.EncodeVolume(id, volumeBytes, data)
		if err != nil {
			t.Fatal(err)
		}
		vc, err := c.VolumeCodec(id, volumeBytes)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range strands {
			idx, _, err := vc.ParseStrand(s)
			if err != nil {
				t.Fatalf("volume %d strand %d: %v", id, i, err)
			}
			if idx/capacity != uint64(id) {
				t.Fatalf("volume %d strand %d has index %d outside its slice (capacity %d)", id, i, idx, capacity)
			}
			// Demux must route every clean strand by prefix alone.
			got, ok := c.ReadVolumeID(s, capacity)
			if !ok || got != id {
				t.Fatalf("ReadVolumeID(volume %d strand %d) = %d, %v", id, i, got, ok)
			}
		}
	}
	// Too-short reads are unroutable, never misrouted.
	if _, ok := c.ReadVolumeID(dna.Seq{0, 1, 2}, capacity); ok {
		t.Fatal("ReadVolumeID routed a read shorter than the index prefix")
	}
}

func TestVolumeSeedsIndependent(t *testing.T) {
	// Identical plaintext in different volumes must encode to different
	// strands (per-volume keystream) or the randomization guarantee is lost.
	c := testVolumeCodec(t)
	data := bytes.Repeat([]byte{0xAA}, 120)
	s0, err := c.EncodeVolume(0, 200, data)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.EncodeVolume(1, 200, data)
	if err != nil {
		t.Fatal(err)
	}
	if VolumeSeed(42, 0) == VolumeSeed(42, 1) {
		t.Fatal("volume seeds collide")
	}
	same := 0
	for i := range s0 {
		// Compare payload regions only; indices differ by construction.
		if s0[i][c.Params().IndexBases:].Equal(s1[i][c.Params().IndexBases:]) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d strands share payload bases across volumes; keystreams must differ", same)
	}
}

func TestDecodeVolumeWrongID(t *testing.T) {
	c := testVolumeCodec(t)
	strands, err := c.EncodeVolume(1, 200, []byte("hello volume one"))
	if err != nil {
		t.Fatal(err)
	}
	// Decoding volume 1's strands as volume 0 must fail loudly: the derived
	// seed and index range differ, so nothing should parse.
	_, _, _, err = c.DecodeVolumeContext(context.Background(), 0, 200, strands, DecodeOptions{})
	if err == nil {
		t.Fatal("decoding with the wrong volume id succeeded")
	}
	if !errors.Is(err, ErrDecode) {
		t.Fatalf("error %v does not wrap ErrDecode", err)
	}
}

func TestDecodeVolumeChecksum(t *testing.T) {
	c := testVolumeCodec(t)
	data := []byte("checksummed volume payload 012345678901234567890123456789")
	strands, err := c.EncodeVolume(0, 200, data)
	if err != nil {
		t.Fatal(err)
	}
	h, got, rep, err := c.DecodeVolumeContext(context.Background(), 0, 200, strands, DecodeOptions{})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("clean volume decode failed: %v", err)
	}
	if h.CRC == 0 {
		t.Fatal("header CRC not populated")
	}
	if rep.Partial {
		t.Fatal("clean decode reported Partial")
	}
}

func TestVolumeFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		[]byte("shard zero"),
		{},
		bytes.Repeat([]byte{0x5A}, 300),
	}
	for id, p := range payloads {
		h := VolumeHeader{ID: uint32(id), N: 12, K: 8, PayloadBytes: 10}
		if err := WriteVolumeFrame(&buf, h, p); err != nil {
			t.Fatalf("write frame %d: %v", id, err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for id, p := range payloads {
		h, got, err := ReadVolumeFrame(r, 1<<20)
		if err != nil {
			t.Fatalf("read frame %d: %v", id, err)
		}
		if h.ID != uint32(id) || h.N != 12 || h.K != 8 || h.PayloadBytes != 10 {
			t.Fatalf("frame %d header = %+v", id, h)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d payload mismatch", id)
		}
	}
	// The stream must end with a clean io.EOF, not a truncation error.
	if _, _, err := ReadVolumeFrame(r, 1<<20); !errors.Is(err, io.EOF) || errors.Is(err, ErrVolumeTruncated) {
		t.Fatalf("end of stream: got %v, want clean io.EOF", err)
	}
}

func TestVolumeFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	payload := bytes.Repeat([]byte{0xC3}, 100)
	if err := WriteVolumeFrame(&buf, VolumeHeader{ID: 7}, payload); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Any torn tail — mid-header or mid-payload — must surface as a typed
	// ErrVolumeTruncated, never a silent EOF or a panic.
	for _, cut := range []int{1, VolumeHeaderBytes - 1, VolumeHeaderBytes, VolumeHeaderBytes + 50, len(whole) - 1} {
		_, _, err := ReadVolumeFrame(bytes.NewReader(whole[:cut]), 1<<20)
		if !errors.Is(err, ErrVolumeTruncated) {
			t.Fatalf("cut at %d: got %v, want ErrVolumeTruncated", cut, err)
		}
		if !errors.Is(err, ErrDecode) {
			t.Fatalf("cut at %d: %v does not wrap ErrDecode", cut, err)
		}
	}
	// A header length beyond maxPayload is truncation, not an allocation.
	if _, _, err := ReadVolumeFrame(bytes.NewReader(whole), 10); !errors.Is(err, ErrVolumeTruncated) {
		t.Fatalf("oversized claim: got %v, want ErrVolumeTruncated", err)
	}
	// A flipped payload bit is a checksum error carrying the bytes read.
	flipped := append([]byte(nil), whole...)
	flipped[VolumeHeaderBytes+3] ^= 0x01
	h, got, err := ReadVolumeFrame(bytes.NewReader(flipped), 1<<20)
	if !errors.Is(err, ErrVolumeChecksum) {
		t.Fatalf("bit flip: got %v, want ErrVolumeChecksum", err)
	}
	if h.ID != 7 || len(got) != len(payload) {
		t.Fatalf("checksum failure dropped the frame: h=%+v len=%d", h, len(got))
	}
}

func TestDecodeVolumeTruncatedTail(t *testing.T) {
	// A frame whose header claims more payload than was decoded (torn tail)
	// must fail typed in strict mode and salvage the available bytes as a
	// damaged volume in best-effort mode.
	c := testVolumeCodec(t)
	const volumeBytes = 200
	vc, err := c.VolumeCodec(0, volumeBytes)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xEE}, 60)
	header := EncodeVolumeHeader(VolumeHeader{
		ID: 0, N: c.Params().N, K: c.Params().K, PayloadBytes: c.Params().PayloadBytes,
		PayloadLen: uint64(len(payload) + 40), // lies: 40 bytes lost to the tear
	})
	framed := append(header[:], payload...)
	strands, err := vc.EncodeFile(framed)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = c.DecodeVolumeContext(context.Background(), 0, volumeBytes, strands, DecodeOptions{})
	if !errors.Is(err, ErrVolumeTruncated) || !errors.Is(err, ErrDecode) {
		t.Fatalf("strict decode of a torn volume: got %v, want ErrVolumeTruncated wrapping ErrDecode", err)
	}
	_, data, rep, err := c.DecodeVolumeContext(context.Background(), 0, volumeBytes, strands, DecodeOptions{BestEffort: true})
	if err != nil {
		t.Fatalf("best-effort decode of a torn volume errored: %v", err)
	}
	if !rep.Partial {
		t.Fatal("best-effort salvage of a torn volume must report Partial, not a clean decode")
	}
	if !bytes.Equal(data, payload) {
		t.Fatalf("salvaged %d bytes, want the %d available payload bytes", len(data), len(payload))
	}
}

func TestDecodeVolumeBadHeader(t *testing.T) {
	// A volume that decodes to fewer bytes than the frame header, or to a
	// frame without the DVOL magic, fails with ErrVolumeHeader in both
	// modes: only ErrVolumeTruncated lets best effort salvage the bytes
	// after the header, and a short volume has none.
	c := testVolumeCodec(t)
	const volumeBytes = 200
	vc, err := c.VolumeCodec(0, volumeBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		framed []byte
	}{
		{"shorter than the header", []byte("short")},
		{"foreign magic", bytes.Repeat([]byte{0xEE}, VolumeHeaderBytes+10)},
	} {
		strands, err := vc.EncodeFile(tc.framed)
		if err != nil {
			t.Fatal(err)
		}
		for _, best := range []bool{false, true} {
			_, data, _, err := c.DecodeVolumeContext(context.Background(), 0, volumeBytes, strands, DecodeOptions{BestEffort: best})
			if !errors.Is(err, ErrVolumeHeader) || !errors.Is(err, ErrDecode) || data != nil {
				t.Fatalf("%s (best effort %v): got %d bytes, %v; want no bytes and ErrVolumeHeader wrapping ErrDecode",
					tc.name, best, len(data), err)
			}
		}
	}
}

func TestVolumeCodecIndexOverflow(t *testing.T) {
	// IndexBases=4 addresses 256 molecules; a high volume id must be
	// rejected rather than silently wrapping into another volume's range.
	c, err := NewCodec(Params{N: 12, K: 8, PayloadBytes: 10, Seed: 1, IndexBases: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EncodeVolume(40, 200, []byte("x")); err == nil {
		t.Fatal("encoding a volume beyond the index space succeeded")
	}
}

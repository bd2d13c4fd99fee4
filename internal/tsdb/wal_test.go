package tsdb

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestSampleCRCMatchesStdlib: the CRC a sample record is framed with,
// computed in parts from the series' prefix, t and v, is crc32.ChecksumIEEE
// of its payload, for any timestamp and value; and t's part of it is
// crc32.Update's over t's bytes from any register, as the three parts add.
func TestSampleCRCMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(20030623))
	names := []string{"", "n0/loadavg", "origin07/freemem", string(make([]byte, 300))}
	leads := make([]uint32, len(names))
	for i, name := range names {
		leads[i] = sampleLead(name)
	}
	var rec []byte
	for i := 0; i < 100000; i++ {
		k, ts, v := i%len(names), rng.Uint64(), rng.Uint64()
		switch i {
		case 0:
			ts, v = 0, 0
		case 1:
			ts, v = ^uint64(0), ^uint64(0)
		}
		rec = appendSampleRecord(rec[:0], names[k], leads[k], crcWord(ts, &sampleCRCTable[1]), int64(ts), v)
		if got, want := binary.LittleEndian.Uint32(rec[4:]), crc32.ChecksumIEEE(rec[recOverhead:]); got != want {
			t.Fatalf("name %q t %x v %x: framed with %08x, crc32.ChecksumIEEE %08x", names[k], ts, v, got, want)
		}
		crc := rng.Uint32()
		b := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, ts), v)
		if got, want := ^(crcWord(uint64(^crc), &sampleCRCTable[1]) ^ crcWord(ts, &sampleCRCTable[1]) ^ crcWord(v, &sampleCRCTable[0])), crc32.Update(crc, crc32.IEEETable, b); got != want {
			t.Fatalf("crc %08x t %x v %x: %08x, crc32.Update %08x", crc, ts, v, got, want)
		}
	}
}

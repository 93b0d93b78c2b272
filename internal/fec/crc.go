package fec

import "hash/crc32"

// The paper uses crc32 as the per-frame checksum (§3.3). We use the IEEE
// polynomial via the standard library; the helpers here exist so framing
// code does not repeat the table plumbing, and so a 16-bit variant is
// available for compact headers.

var crcTable = crc32.MakeTable(crc32.IEEE)

// Checksum32 returns the IEEE CRC32 of data.
func Checksum32(data []byte) uint32 {
	return crc32.Checksum(data, crcTable)
}

// Verify32 reports whether data matches the given CRC32.
func Verify32(data []byte, sum uint32) bool {
	return Checksum32(data) == sum
}

// Checksum16 returns a CRC-16/CCITT-FALSE checksum (poly 0x1021, init
// 0xFFFF), used for short control records such as the modem burst headers
// where a 4-byte CRC would be disproportionate.
func Checksum16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// Verify16 reports whether data matches the given CRC-16.
func Verify16(data []byte, sum uint16) bool {
	return Checksum16(data) == sum
}

package lwc

import (
	"crypto/cipher"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// chainDigest returns the SHA-256 of 64 chained encryptions starting at
// one fixed block followed by 64 chained decryptions starting at another,
// so both directions are pinned independently.
func chainDigest(blk cipher.Block) string {
	h := sha256.New()
	buf := make([]byte, blk.BlockSize())
	for i := range buf {
		buf[i] = byte(0x5A ^ i*29)
	}
	for i := 0; i < 64; i++ {
		blk.Encrypt(buf, buf)
		h.Write(buf)
	}
	for i := range buf {
		buf[i] = byte(0xC3 + i*41)
	}
	for i := 0; i < 64; i++ {
		blk.Decrypt(buf, buf)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestKey is the fixed key a digest is recorded under.
func digestKey(bits int) []byte {
	key := make([]byte, bits/8)
	for i := range key {
		key[i] = byte(i*7 + 1)
	}
	return key
}

// TestCipherDigests pins every registry cipher at every key size to the
// chained encrypt/decrypt digests it produced before its rounds were
// rewritten, so a faster round cannot change a single output bit. For
// the ciphers without published vectors (DESL, SEED, TWINE, Hummingbird,
// Hummingbird2, Iceberg, Pride) this is the only pin independent of the
// reference implementations.
func TestCipherDigests(t *testing.T) {
	want := map[string]string{
		"AES/128":          "a9e2dab621ba2f99008046c83bd5a916ade2e4051e8bb919d09c07fbd3d1bdfa",
		"AES/192":          "abd386d038c68fcbb63666c0b9abcd078e5603e0cd719841c184bb15a0caf084",
		"AES/256":          "c6565ecc63d8512deddc92644cea64e656c7c526c46b1cdf84987eeeb37a2f61",
		"HIGHT/128":        "68610204b46ee093168beece0b6fded2997a9e8e60ce4cc25d3a430304287ed4",
		"PRESENT/80":       "96d7538cc7d6fd474727f57a97c5adc56976da372233813c680daad01693656f",
		"PRESENT/128":      "2ec5785220de1a1c89b2d90d8d97e9725b14ce81b6549d568a019a7da22e09be",
		"RC5/128":          "9a0c3b08d7d2505a27fc80f5d1a42d4165df22fe27835b30828352861be185e4",
		"TEA/128":          "32ba98fcda04a62b350b2a0218dbad56f8ce4fcfd526dfeaa20ddc57a617c8b0",
		"XTEA/128":         "0a59efe60a4ab0407a7725fd64502268e0c5e4c1219c038129d87ea39bf1dfb1",
		"LEA/128":          "1937e80b545494e3cdb6c51c22d9803644e04949f51b37011786895afbb63992",
		"LEA/192":          "9ca563669cbb24ca2dcb0714b911b3f60f6c57653c7dcecb996e7b162d449a68",
		"LEA/256":          "1d0ba286ff63380b3afa170802f2f53b3038f0ad722ed66f0b3695bcc8d48497",
		"DES/64":           "f213195e06396dc9c486ae2de7f79f485b42d7c49d91ae01bda614cbaa387b65",
		"SEED/128":         "66905eea9713935d0c4598df2ab8c06169b1e4f15b2514b6b886bebab53d6f52",
		"TWINE/80":         "21f00978ea9cf541902aedee27d7c570bb6cc9723099e3a5c93868950b166992",
		"TWINE/128":        "3c571d062e6f016637b545c0e1988c9a937379d92d1ba9f801dbe5ca6a8231ea",
		"DESL/64":          "d9d2f13f505a577709e6572276aa3ca199c4a84c94a7e847d249a3ecd480fa5d",
		"3DES/128":         "32b99157f808d4f4db1c4061e87e6e2c9ddb8428dc3dc99019eb363082904592",
		"3DES/192":         "d986ebf78aa6efa96ed403627fc7896cd18d19b919673f49e066c9577c89d14e",
		"Hummingbird/256":  "84536a8d1ac99d4e77bf23be0a894b9bc184a1578e5275fe1d16aebe91715b31",
		"Hummingbird2/256": "17b19757d57c72a59fb0272fdf4cf012adaf6aec6b38426c17d1c301363f63fd",
		"Iceberg/128":      "116624f1835d723e1bd4ebf790b58200e17c7025c4b75cb006281d426afce0a1",
		"Pride/128":        "32dcbfd866945b0dd85770c4e71f806ee09371a77ceb9094c36f2655d654f030",
	}
	seen := 0
	for _, info := range NewRegistry().All() {
		for _, bits := range info.KeySizes {
			name := fmt.Sprintf("%s/%d", info.Name, bits)
			blk, err := info.New(digestKey(bits))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := chainDigest(blk)
			if w, ok := want[name]; !ok {
				t.Errorf("%s: no pinned digest (got %s)", name, got)
			} else if got != w {
				t.Errorf("%s: digest %s, want %s", name, got, w)
			}
			seen++
		}
	}
	if seen != len(want) {
		t.Errorf("checked %d cipher/key-size pairs, want %d", seen, len(want))
	}
}

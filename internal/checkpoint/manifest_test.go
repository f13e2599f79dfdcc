package checkpoint

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/program"
	"repro/internal/uarch"
)

// pinnedKey is the store key of one fixed warmed serial plan.
func pinnedKey(t *testing.T) Key {
	t.Helper()
	spec, err := program.ByName("gzipx")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := program.Generate(spec, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	return KeyFor(prog, uarch.Config8Way(), Params{U: 1000, W: 2000, K: 10, J: 3, FunctionalWarm: true})
}

// The content addresses the previous release computed for pinnedKey's
// plan: swept serially, and as a 2-segment speculative parallel sweep (a
// key variant that no longer exists).
const (
	serialHash   = "3c2d1eb39878c6e09cc67b118ff810d4"
	parallelHash = "3f81233b84ec1a10a728305c2c7319bf"
)

// TestSerialKeyHashPinned guards every existing store entry's content
// address: a change to the key text of a serial plan orphans them all.
func TestSerialKeyHashPinned(t *testing.T) {
	if got := pinnedKey(t).Hash(); got != serialHash {
		t.Fatalf("serial key hash = %s, want %s (key text %q)", got, serialHash, pinnedKey(t))
	}
}

// legacyManifests are the gob-encoded storeManifest{pinnedKey's plan,
// 100 units} the previous release's writer put in entries and journals,
// when Key still carried the parallel sweep's segment count and overlap
// (two more field descriptors): serially swept (the pair zero) and as a
// 2-segment sweep with the 1M default overlap.
var legacyManifests = map[string]string{
	serialHash: legacyManifestPrefix +
		"01020001064443616368650102000109507265646963746f720102000000ff88ff80010105677a697078011033343162" +
		"31386662616136623034633201fe03e801fe07d0010a01010302010101010101010100014f696c313d32353678326236" +
		"20646c313d32353678326236206c323d34303936783462362069746c623d3132382064746c623d32353620746c62773d" +
		"342062703d323034382f31312f35313278342f3800016400",
	parallelHash: legacyManifestPrefix +
		"01020001064443616368650102000109507265646963746f720102000000ff8fff80010105677a697078011033343162" +
		"31386662616136623034633201fe03e801fe07d0010a01010302010101010101010100014f696c313d32353678326236" +
		"20646c313d32353678326236206c323d34303936783462362069746c623d3132382064746c623d32353620746c62773d" +
		"342062703d323034382f31312f35313278342f38010401fd1e848000016400",
}

// legacyManifestPrefix is the type descriptors both manifests share.
const legacyManifestPrefix = "" +
	"377f0301010d73746f72654d616e696665737401ff8000010201034b657901ff8200010f506f70756c6174696f6e556e" +
	"6974730106000000ffacff81030101034b657901ff8200010c0108576f726b6c6f6164010c00010b50726f6772616d48" +
	"617368010c0001015501060001015701060001014b01060001074f66667365747301ff840001084d6178556e69747301" +
	"0400010e46756e6374696f6e616c5761726d010200010a436f6d706f6e656e747301ff860001075761726d536967010c" +
	"00010d53776565705365676d656e7473010400010c53776565704f7665726c6170010400000016ff83020101085b5d75" +
	"696e74363401ff84000106000040ff850301010e5761726d436f6d706f6e656e747301ff860001030106494361636865"

// TestLegacyManifestDecodes decodes manifests the previous release wrote
// into today's storeManifest, which lacks two of their Key fields. The
// serial one yields the serial key text at its own file name, so older
// serial entries and journals still load. The parallel one decodes too,
// but to a key whose content address is not its file name: no lookup
// reaches that file, and Verify reports it.
func TestLegacyManifestDecodes(t *testing.T) {
	k := pinnedKey(t)
	for file, blob := range legacyManifests {
		raw, err := hex.DecodeString(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(raw, []byte("Sweep")) {
			t.Fatalf("%s: fixture lacks the dropped Key fields", file)
		}
		var framed bytes.Buffer
		cw := newCodecWriter(&framed)
		cw.begin()
		if err := cw.bytes(raw); err != nil {
			t.Fatal(err)
		}
		if err := cw.seal(); err != nil {
			t.Fatal(err)
		}
		if err := cw.w.Flush(); err != nil {
			t.Fatal(err)
		}
		man, err := readManifest(newCodecReader(&framed))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if man.PopulationUnits != 100 || man.Key.String() != k.String() {
			t.Fatalf("%s: decoded %d units under %q, want 100 under %q", file, man.PopulationUnits, man.Key, k)
		}
		if atName := man.Key.Hash() == file; atName != (file == serialHash) {
			t.Fatalf("%s: decoded key hashes to %s; at its own name = %v", file, man.Key.Hash(), atName)
		}
	}
}

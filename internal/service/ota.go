package service

import (
	"crypto/ed25519"
	"fmt"
	"sync"

	"xlf/internal/lwc"
)

// OTA update pipeline (§III-C): the cloud distributes firmware images to
// devices. A robust pipeline signs images and devices verify before
// flashing; the OpenRedirectOTA flaw skips signing, which the Table II
// "firmware modulation" attack exploits.

// OTAImage is a distributable firmware image.
type OTAImage struct {
	Version string
	Data    []byte
	// Fingerprint is the lightweight hash devices check after flashing.
	Fingerprint uint64
	// Signature is the vendor's ed25519 signature over the data (empty =
	// unsigned).
	Signature []byte
}

// OTAPipeline signs and dispatches updates.
type OTAPipeline struct {
	cloud *Cloud
	// keys derives the vendor keypair on first use. Most simulations
	// never sign or verify an image, and the derivation is a large share
	// of building a home.
	keys func() (ed25519.PrivateKey, ed25519.PublicKey)
	// Flash delivers a verified image to the physical device; installed
	// by the testbed.
	Flash func(deviceID string, img OTAImage) error

	pushed, rejected uint64
}

// NewOTAPipeline creates the pipeline with a fresh vendor keypair derived
// deterministically from seed.
func NewOTAPipeline(cloud *Cloud, seed []byte) (*OTAPipeline, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("service: OTA seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	seed = append([]byte(nil), seed...)
	keys := sync.OnceValues(func() (ed25519.PrivateKey, ed25519.PublicKey) {
		priv := ed25519.NewKeyFromSeed(seed)
		return priv, priv.Public().(ed25519.PublicKey)
	})
	return &OTAPipeline{cloud: cloud, keys: keys}, nil
}

// VendorPublicKey returns the verification key devices pin.
func (o *OTAPipeline) VendorPublicKey() ed25519.PublicKey {
	_, pub := o.keys()
	return pub
}

// Stats returns (imagesPushed, imagesRejected).
func (o *OTAPipeline) Stats() (uint64, uint64) { return o.pushed, o.rejected }

// Build signs an image.
func (o *OTAPipeline) Build(version string, data []byte) OTAImage {
	img := OTAImage{
		Version:     version,
		Data:        append([]byte(nil), data...),
		Fingerprint: lwc.Sum64(data),
	}
	priv, _ := o.keys()
	img.Signature = ed25519.Sign(priv, img.Data)
	return img
}

// VerifyImage checks signature and fingerprint; this is the device-side
// check.
func VerifyImage(pub ed25519.PublicKey, img OTAImage) error {
	if img.Fingerprint != lwc.Sum64(img.Data) {
		return fmt.Errorf("service: OTA fingerprint mismatch for %s", img.Version)
	}
	if len(img.Signature) == 0 {
		return ErrUnsignedImage
	}
	if !ed25519.Verify(pub, img.Data, img.Signature) {
		return fmt.Errorf("service: OTA signature invalid for %s", img.Version)
	}
	return nil
}

// Push distributes an image to a device. On a hardened platform unsigned
// or tampered images are rejected before dispatch; with the
// OpenRedirectOTA flaw they are pushed anyway and only device-side checks
// (if any) stand in the way.
func (o *OTAPipeline) Push(deviceID string, img OTAImage) error {
	if _, ok := o.cloud.devices[deviceID]; !ok {
		return ErrUnknownDevice
	}
	if !o.cloud.Flaws.OpenRedirectOTA {
		if err := VerifyImage(o.VendorPublicKey(), img); err != nil {
			o.rejected++
			return err
		}
	}
	o.pushed++
	if o.Flash != nil {
		return o.Flash(deviceID, img)
	}
	return nil
}

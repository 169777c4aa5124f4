package cli

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"encoding/pem"
	"flag"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hmccoal/internal/frontend"
	"hmccoal/internal/membackend"
)

func parse(t *testing.T, groups Group, args ...string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, groups)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("flag parse %v: %v", args, err)
	}
	return f, f.Parse()
}

// TestRegisterOnlyGroups: a binary gets exactly the flags of the groups it
// registers, and an unregistered group parses to its default.
func TestRegisterOnlyGroups(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, Backend|Workers)
	var names []string
	fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
	if got := strings.Join(names, ","); got != "backend,workers" {
		t.Fatalf("registered flags %s, want backend,workers", got)
	}
	if err := f.Parse(); err != nil {
		t.Fatal(err)
	}
	if f.Backend != membackend.KindHMC || f.Frontend != frontend.KindTwoPhase || f.Sched != frontend.SchedFRFCFS || f.Faults.Enabled() {
		t.Errorf("defaults = %v/%v/%v/%+v", f.Backend, f.Frontend, f.Sched, f.Faults)
	}
}

func TestParseValues(t *testing.T) {
	f, err := parse(t, Backend|Frontend|Faults|Workers|Batch,
		"-backend", "hmc", "-frontend", "warp", "-sched", "hetero", "-faults", "seed=3,ber=1e-6", "-workers", "2", "-batch", "4")
	if err != nil {
		t.Fatal(err)
	}
	if f.Frontend != frontend.KindWarp || f.Sched != frontend.SchedHetero || f.Faults.Seed != 3 || f.Faults.BER != 1e-6 || f.Workers != 2 || f.Batch != 4 {
		t.Errorf("parsed %+v", f)
	}
}

// TestServeAnnounces pins the stderr lines scripts parse: chaos armed,
// then TLS enabled, then the bound coordinator address.
func TestServeAnnounces(t *testing.T) {
	cert, key := writeSelfSigned(t, t.TempDir())
	f, err := parse(t, Serve, "-serve", "127.0.0.1:0", "-chaos", "seed=7,delay=1ms", "-tls-cert", cert, "-tls-key", key)
	if err != nil {
		t.Fatal(err)
	}
	var w bytes.Buffer
	coord, err := f.Serve("bin", &w)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	lines := strings.Split(strings.TrimSpace(w.String()), "\n")
	if len(lines) != 3 ||
		lines[0] != "bin: chaos injection armed on worker connections (seed 7)" ||
		lines[1] != "bin: TLS enabled on worker connections" ||
		!strings.HasPrefix(lines[2], "bin: coordinating sweeps on 127.0.0.1:") {
		t.Errorf("announcements:\n%s", w.String())
	}

	if coord, err := (&Flags{}).Serve("bin", &w); coord != nil || err != nil {
		t.Errorf("Serve without -serve = %v, %v; want nil, nil", coord, err)
	}
}

// writeSelfSigned mints a throwaway ECDSA keypair for 127.0.0.1 into dir
// and returns the PEM paths.
func writeSelfSigned(t *testing.T, dir string) (certPath, keyPath string) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{SerialNumber: big.NewInt(1), NotBefore: time.Now().Add(-time.Hour), NotAfter: time.Now().Add(time.Hour)}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	certPath, keyPath = filepath.Join(dir, "c.crt"), filepath.Join(dir, "c.key")
	for path, block := range map[string]*pem.Block{certPath: {Type: "CERTIFICATE", Bytes: der}, keyPath: {Type: "EC PRIVATE KEY", Bytes: keyDER}} {
		if err := os.WriteFile(path, pem.EncodeToMemory(block), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return certPath, keyPath
}

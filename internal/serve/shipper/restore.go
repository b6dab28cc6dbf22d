package shipper

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"enhancedbhpo/internal/serve/tracestore"
)

// Restore materializes the first usable replica in srcDirs — a sink's
// node directories, in preference order — as the bhpod data directory
// destDir and returns the one it used. Every manifest-listed (sealed)
// file is copied through the hasher and compared with its manifest entry,
// and every in-progress .part file — the log's active segment, whose torn
// final line journal.Replay and the trace store already tolerate — is
// copied under its bare name. The result is a
// directory NewManagerFromJournal can open as if the dead node had merely
// been restarted.
//
// Each replica is restored into a scratch directory that is renamed onto
// destDir only when whole, so a replica that fails part-way leaves nothing
// behind and the next one starts clean. A sealed file whose bytes no
// longer match its checksum is quarantined (renamed with a .quarantine
// suffix inside the replica, which keeps that replica unusable until an
// operator has looked) and the restore falls through to the next replica;
// when none is left the error matches ErrChecksumMismatch — a replica
// that lies about its log is never promoted silently.
//
// destDir may be absent or an empty, pre-created directory, which the
// restored one replaces. Anything the final rename could not replace
// whole — a file, a symlink, a mount point, a directory holding anything,
// a node's log above all — is refused before a byte is copied, never
// overlaid or replaced.
func Restore(srcDirs []string, destDir string) (string, error) {
	if len(srcDirs) == 0 {
		return "", errors.New("shipper: restore: no replicas given")
	}
	if fi, err := os.Lstat(destDir); err == nil {
		if fi.IsDir() { // make way for the rename, before anything is copied
			err = os.Remove(destDir) // takes an empty directory only, and no mount point
		} else {
			err = errors.New("not a directory (a symlink is not followed)")
		}
		if err != nil {
			return "", fmt.Errorf("shipper: restore: destination %s: %w", destDir, err)
		}
	}
	scratch := filepath.Clean(destDir) + ".restoring"
	defer os.RemoveAll(scratch)
	var errs []error
	for _, src := range srcDirs {
		if err := os.RemoveAll(scratch); err != nil {
			return "", fmt.Errorf("shipper: restore: %w", err)
		}
		if err := restoreInto(src, scratch); err != nil {
			errs = append(errs, err)
			continue
		}
		if err := os.Rename(scratch, destDir); err != nil {
			return "", fmt.Errorf("shipper: restore: %w", err)
		}
		return src, nil
	}
	return "", fmt.Errorf("shipper: restore: no usable replica: %w", errors.Join(errs...))
}

// restoreInto copies one replica into destDir: the sealed files first —
// verified as they are copied, these are the trusted history — then the
// in-progress tails. A part shadowing a sealed name is newer (the file
// restarted after its seal) and wins.
func restoreInto(srcDir, destDir string) error {
	if err := checkSealed(srcDir, destDir); err != nil {
		return err
	}
	err := fs.WalkDir(os.DirFS(srcDir), ".", func(rel string, d fs.DirEntry, err error) error {
		if name, isPart := strings.CutSuffix(filepath.FromSlash(rel), partSuffix); err == nil && isPart && !d.IsDir() {
			_, _, err = hashCopy(filepath.Join(srcDir, name+partSuffix), filepath.Join(destDir, name))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("shipper: restore %s: %w", srcDir, err)
	}
	return nil
}

// VerifyReplica checks a shipped replica without touching it, so the
// coordinator can probe candidates before committing a restore: the sink
// directory must exist and hold a log, every sealed segment of the log
// its manifest lists must be there, and every manifest-listed file still
// present must hash to its manifest checksum. It applies the rules
// Restore applies, read-only — nothing is copied or quarantined. A corrupt
// file fails with an error matching ErrChecksumMismatch.
func VerifyReplica(dir string) error {
	return checkSealed(dir, "")
}

// checkSealed is the one pass over a replica's sealed files behind
// VerifyReplica (copyTo "") and Restore: each manifest-listed file is read
// once, through the hasher and — with copyTo set — into copyTo, and
// compared with its manifest entry; with copyTo set a mismatching source
// file is quarantined.
func checkSealed(dir, copyTo string) error {
	manifest, err := ReadManifest(dir)
	if err != nil {
		return err
	}
	// A replica holds a log: sealed files its manifest lists or, in a
	// node's first life before anything was sealed, a segment in progress.
	// Refusing one that holds neither (or is not there at all) keeps an
	// empty sink directory from being preferred over a complete replica
	// later in the preference list.
	parts, _ := filepath.Glob(filepath.Join(tracestore.Dir(dir), "*"+partSuffix))
	if len(manifest)+len(parts) == 0 {
		return fmt.Errorf("shipper: replica %s holds no log: %w", dir, os.ErrNotExist)
	}
	for name, entry := range manifest {
		src := filepath.Join(dir, filepath.FromSlash(name))
		dest := ""
		if copyTo != "" {
			dest = filepath.Join(copyTo, filepath.FromSlash(name))
		}
		sum, size, err := hashCopy(src, dest)
		if errors.Is(err, os.ErrNotExist) {
			if _, qerr := os.Stat(src + quarantineSuffix); qerr == nil {
				// Gone because an earlier restore quarantined it.
				return fmt.Errorf("shipper: replica %s: %s is quarantined: %w", dir, name, ErrChecksumMismatch)
			}
			// Nothing deletes a segment of the log: this one, and the
			// records it held, are lost.
			return fmt.Errorf("shipper: replica %s: sealed %s is missing: %w", dir, name, err)
		}
		if err != nil {
			return fmt.Errorf("shipper: replica %s: %s: %w", dir, name, err)
		}
		if size != entry.Size || sum != entry.SHA256 {
			if copyTo != "" {
				os.Rename(src, src+quarantineSuffix)
			}
			return fmt.Errorf("shipper: replica %s: %s: %w", dir, name, ErrChecksumMismatch)
		}
	}
	return nil
}

// hashCopy reads the file at src once and returns its SHA-256 hex digest
// and size. With dest set the same bytes are written there (creating
// parent directories) and fsynced, so a restored log is durable before
// the replacement opens it. A missing src fails with os.ErrNotExist before
// anything is created.
func hashCopy(src, dest string) (string, int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return "", 0, err
	}
	defer in.Close()
	h := sha256.New()
	var out *os.File
	w := io.Writer(h)
	if dest != "" {
		if err := os.MkdirAll(filepath.Dir(dest), 0o755); err != nil {
			return "", 0, err
		}
		if out, err = os.Create(dest); err != nil {
			return "", 0, err
		}
		w = io.MultiWriter(h, out)
	}
	size, err := io.Copy(w, in)
	if out != nil {
		err = errors.Join(err, out.Sync(), out.Close())
	}
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), size, nil
}

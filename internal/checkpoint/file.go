package checkpoint

import "os"

// WriteFileAtomic writes data to path through a temp file and a rename: a
// process torn mid-write leaves either the previous file or the complete new
// one, never a partial one (readers ignore stray "*.tmp" files). It is the
// one durable-write primitive of the repository — engine checkpoints, scotty's
// final.sck, spill segments, and the chaos harness's torn-payload writer all
// go through it.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		//lint:ignore errflow the temp file is garbage either way; the rename error is the one the caller acts on
		_ = os.Remove(tmp)
		return err
	}
	return nil
}

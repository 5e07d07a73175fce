// Seeded violations for the durability analyzer: renames that commit
// unsynced payloads and journal appends that return before fsync.
package cas

import "os"

func commitUnsynced(tmp *os.File, final string) error {
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), final) // want `os.Rename with no preceding Sync`
}

func commitOrdered(tmp *os.File, final string) error {
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), final)
}

func appendTorn(journal *os.File, line []byte) error {
	_, err := journal.Write(line) // want `os.File write with no Sync`
	return err
}

func appendDurable(journal *os.File, line []byte) error {
	if _, err := journal.Write(line); err != nil {
		return err
	}
	return journal.Sync()
}

func scratchRename(dir string) error {
	//daspos:fsync-ok — scratch file, a crash here loses nothing durable
	return os.Rename(dir+"/a", dir+"/b")
}

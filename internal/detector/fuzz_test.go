package detector

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSON feeds ReadJSON arbitrary geometry files — the outreach
// exhibit reader hands it whatever file it is given. ReadJSON must not
// panic; a geometry it accepts must write bytes that read back to an equal
// one; and every channel of every sensitive layer it accepts must have an
// address, the last one included.
func FuzzReadJSON(f *testing.F) {
	var std bytes.Buffer
	if err := Standard().WriteJSON(&std); err != nil {
		f.Fatal(err)
	}
	f.Add(std.Bytes())
	f.Add(std.Bytes()[:std.Len()/2])
	f.Add(bytes.Replace(std.Bytes(), []byte(`"n_phi": 16000`), []byte(`"n_phi": 20000`), 1))
	f.Add(bytes.Replace(std.Bytes(), []byte(`"n_z": 512`), []byte(`"n_z": 4097`), 1))
	f.Add([]byte(`{"name":"x","layers":[{"kind":"pixel","name":"a","radius_mm":5,"n_phi":16384,"n_z":4096}]}`))
	f.Add([]byte(`{"name":"x","layers":null}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := range d.Layers {
			if l := &d.Layers[i]; l.Sensitive() {
				MakeChannelID(i, l.NPhi-1, l.NZ-1)
			}
		}
		var enc bytes.Buffer
		if err := d.WriteJSON(&enc); err != nil {
			t.Fatalf("an accepted geometry does not write: %v", err)
		}
		back, err := ReadJSON(strings.NewReader(enc.String()))
		if err != nil {
			t.Fatalf("a written geometry does not read back: %v\n%s", err, enc.Bytes())
		}
		assertSameGeometry(t, d, back)
	})
}

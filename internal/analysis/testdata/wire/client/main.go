// Command wire is the client of the handler package beside it.
package main

import (
	"encoding/json"
	"net/http"

	"daspos/internal/wire"
)

const tokenHeader = "X-Token"

type item struct {
	Name string `json:"name"`
}

func get(c *http.Client, base, id string) (string, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/items/"+id, nil)
	if err != nil {
		return "", err
	}
	req.Header.Set(tokenHeader, "t")
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var it item
	err = json.NewDecoder(resp.Body).Decode(&it)
	return it.Name + resp.Header.Get("ETag"), err
}

func approve(c *http.Client, base, id string) error {
	resp, err := c.Post(base+"/items/"+id+"/approve", "application/json", nil)
	if err == nil {
		resp.Body.Close()
	}
	return err
}

func file(c *http.Client, base string) error {
	resp, err := c.Get(base + "/files/a/b/c")
	if err == nil {
		resp.Body.Close()
	}
	return err
}

func main() {
	_ = (&wire.Server{}).Handler()
	base := "http://localhost:8080"
	_, _ = get(http.DefaultClient, base, "1")
	_ = approve(http.DefaultClient, base, "1")
	_ = file(http.DefaultClient, base)
}

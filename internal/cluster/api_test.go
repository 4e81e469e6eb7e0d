package cluster

import (
	"net/http"
	"strings"
	"testing"
)

// TestJobAPIParity runs one table against a worker and a coordinator: one
// handler skeleton serves both, so the shared routes answer alike.
func TestJobAPIParity(t *testing.T) {
	w := startWorker(t)
	_, coord := startCoordinator(t, []string{startWorker(t).URL}, nil)
	for _, srv := range []struct{ name, url string }{{"worker", w.URL}, {"coordinator", coord.URL}} {
		t.Run(srv.name, func(t *testing.T) {
			slow := submitOnly(t, srv.url, longEnsembleBody)
			t.Cleanup(func() { sendDelete(t, srv.url+"/v1/jobs/"+slow) })
			done := submitOnly(t, srv.url, routedBody)
			cases := []struct {
				name, method, path, body string
				code                     int
				status                   string // job status the body must carry, for 2xx
			}{
				{"unknown job", "GET", "/v1/jobs/nope", "", 404, ""},
				{"unknown result", "GET", "/v1/jobs/nope/result?wait=0s", "", 404, ""},
				{"unknown trace", "GET", "/v1/jobs/nope/trace", "", 404, ""},
				{"unknown profile", "GET", "/v1/jobs/nope/profile", "", 404, ""},
				{"unknown cancel", "DELETE", "/v1/jobs/nope", "", 404, ""},
				{"bad wait", "GET", "/v1/jobs/" + slow + "/result?wait=soon", "", 400, ""},
				{"malformed body", "POST", "/v1/jobs", "{not json", 400, ""},
				{"long-poll timeout", "GET", "/v1/jobs/" + slow + "/result?wait=1ms", "", 202, "live"},
				{"finished job", "GET", "/v1/jobs/" + done + "/result?wait=30s", "", 200, "done"},
				{"backends", "GET", "/v1/backends", "", 200, ""},
			}
			for _, tc := range cases {
				req, _ := http.NewRequest(tc.method, srv.url+tc.path, strings.NewReader(tc.body))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != tc.code {
					resp.Body.Close()
					t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.code)
					continue
				}
				if tc.name == "backends" {
					resp.Body.Close()
					continue
				}
				body := decodeJSON(t, resp)
				switch {
				case tc.code >= 400:
					if msg, _ := body["error"].(string); msg == "" {
						t.Errorf("%s: %d body has no error text: %v", tc.name, tc.code, body)
					}
				case tc.status == "live":
					if s := body["status"]; (s != "queued" && s != "running") || body["id"] != slow {
						t.Errorf("%s: snapshot %v, want job %s queued or running", tc.name, body, slow)
					}
				case body["status"] != tc.status:
					t.Errorf("%s: status %v, want %s (%v)", tc.name, body["status"], tc.status, body["error"])
				}
			}
		})
	}
}

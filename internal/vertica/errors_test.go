package vertica

import (
	"errors"
	"strings"
	"testing"
)

// The typed sentinels exist so callers (the resilience layer in particular)
// can classify failures with errors.Is instead of string matching.
func TestErrorSentinels(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 2, MaxClientSessions: 1})
	if err != nil {
		t.Fatal(err)
	}

	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := c.Connect(0); !errors.Is(err, ErrSessionLimit) {
		t.Errorf("err = %v, want errors.Is ErrSessionLimit", err)
	}

	c.Node(1).SetDown(true)
	if _, err := c.Connect(1); !errors.Is(err, ErrNodeDown) {
		t.Errorf("connect err = %v, want errors.Is ErrNodeDown", err)
	}
	c.Node(0).SetDown(true)
	if _, err := s.Execute("SELECT 1"); !errors.Is(err, ErrNodeDown) {
		t.Errorf("execute err = %v, want errors.Is ErrNodeDown", err)
	}
}

// A closed session runs nothing: COPY ... FROM STDIN fails as a statement
// does, and the rows it carried are not loaded.
func TestClosedSessionRefusesCopy(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id)")
	s2 := sess(t, c, 1)
	s2.Close()
	if _, err := s2.Execute("SELECT 1"); err == nil || !strings.Contains(err.Error(), "session is closed") {
		t.Fatalf("Execute on a closed session: err = %v", err)
	}
	if _, err := s2.CopyFrom("COPY t FROM STDIN FORMAT CSV", strings.NewReader("1\n2\n")); err == nil || !strings.Contains(err.Error(), "session is closed") {
		t.Fatalf("CopyFrom on a closed session: err = %v", err)
	}
	if res := s.MustExecute("SELECT COUNT(*) FROM t"); res.Rows[0][0].I != 0 {
		t.Fatalf("t holds %d rows after a closed session's COPY, want 0", res.Rows[0][0].I)
	}
}

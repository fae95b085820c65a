package pinbcast

import "testing"

// TestRegistryMessages pins the rejection messages of the three
// strategy registries, which share one implementation.
func TestRegistryMessages(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{RegisterScheduler(NewScheduler("", nil)), "pinbcast: scheduler has no name: invalid specification"},
		{RegisterScheduler(NewScheduler(SchedulerEDF, nil)), `pinbcast: scheduler "edf" already registered: invalid specification`},
		{RegisterLayout(NewLayout("", nil)), "pinbcast: layout has no name: invalid specification"},
		{RegisterLayout(NewLayout(LayoutTiered, nil)), `pinbcast: layout "tiered" already registered: invalid specification`},
		{RegisterShard(HotColdShard()), `pinbcast: shard policy "hot-cold" already registered: invalid specification`},
	}
	for _, c := range cases {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("got %v, want %q", c.err, c.want)
		}
	}
}

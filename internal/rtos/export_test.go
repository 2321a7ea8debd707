package rtos

import "fmt"

// CheckReadySet verifies the ready-set invariant: the dispatch ranks
// follow the policy (network order under RoundRobin; priority
// descending, network order among equals, under StaticPriority), and
// the set holds exactly the software tasks that are Enabled, with no
// stray bits past the last task and no hardware task ranked.
func CheckReadySet(s *System) error {
	if len(s.byRank) != len(s.Tasks) || len(s.ready) != (len(s.Tasks)+63)/64 {
		return fmt.Errorf("ready set sized for %d ranks in %d words, have %d tasks",
			len(s.byRank), len(s.ready), len(s.Tasks))
	}
	netIdx := make(map[*Task]int, len(s.Tasks))
	for i, t := range s.Tasks {
		netIdx[t] = i
	}
	for i, t := range s.byRank {
		if t.rank != i {
			return fmt.Errorf("task %s at rank %d records rank %d", t.M.Name, i, t.rank)
		}
		if i > 0 {
			prev := s.byRank[i-1]
			inOrder := netIdx[prev] < netIdx[t]
			if s.Cfg.Policy == StaticPriority && prev.Priority != t.Priority {
				inOrder = prev.Priority > t.Priority
			}
			if !inOrder {
				return fmt.Errorf("%s ranks %s before %s", s.Cfg.Policy, prev.M.Name, t.M.Name)
			}
		}
		if set := s.ready[i>>6]>>(uint(i)&63)&1 == 1; set != t.Enabled() {
			return fmt.Errorf("task %s (rank %d): ready bit %v, Enabled() %v", t.M.Name, i, set, t.Enabled())
		}
	}
	if n := len(s.byRank); n%64 != 0 && s.ready[len(s.ready)-1]>>(uint(n)&63) != 0 {
		return fmt.Errorf("ready bits set past the last rank %d", n-1)
	}
	for _, t := range s.hwTasks {
		if t.rank != -1 {
			return fmt.Errorf("hardware task %s has rank %d", t.M.Name, t.rank)
		}
	}
	return nil
}

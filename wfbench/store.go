package main

import (
	"encoding/json"

	"repliflow/internal/store"
)

// timedStore wraps the server's store on traced runs, recording one span
// per call into the store layer.
type timedStore struct {
	store.Store
	tr *tracer
}

func (s *timedStore) PutJob(rec store.JobRecord) error {
	defer s.tr.close(s.tr.open("store.put_job", 0, 0))
	return s.Store.PutJob(rec)
}

func (s *timedStore) AppendFrontPoint(id string, point json.RawMessage) error {
	defer s.tr.close(s.tr.open("store.append_point", 0, 0))
	return s.Store.AppendFrontPoint(id, point)
}

func (s *timedStore) GetJob(id string) (store.JobRecord, bool, error) {
	defer s.tr.close(s.tr.open("store.get_job", 0, 0))
	return s.Store.GetJob(id)
}

func (s *timedStore) PutResult(key string, result json.RawMessage) error {
	defer s.tr.close(s.tr.open("store.put_result", 0, 0))
	return s.Store.PutResult(key, result)
}
